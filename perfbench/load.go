package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// result is one completed request. Every response is checked for status,
// shape and generation as it arrives.
type result struct {
	i        int     // index of the read (w.read) or append (w.append)
	err      error   // transport failure, non-2xx, or a failed check
	ans      *answer // nil when err is set
	latency  time.Duration
	lateness time.Duration // open loop only: send start minus the moment the sender was free and due
}

// answer is one distinct response that passed the inline checks; later
// byte-identical responses on the same connection share it, so a wrong
// answer found by the oracle fails every request that received it.
type answer struct {
	body    []byte // kept while it is the key's latest answer, or when sampled
	sampled bool   // the oracle recomputes this answer
	gen     int64  // generation echoed
	rows    int    // rows echoed
	wrong   error  // set by the oracle
}

func (r *result) failed() bool { return r.err != nil || r.ans.wrong != nil }

// newClient returns a client pinned to one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

func send(ctx context.Context, c *http.Client, base string, o op) (int, []byte, error) {
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequestWithContext(ctx, o.method, base+o.path, body)
	if err != nil {
		return 0, nil, err
	}
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// loadStats is everything one timed window produced.
type loadStats struct {
	reads    []result
	appends  []result
	window   time.Duration // first timed send to last timed completion
	warmOps  int
	warmFail int
	cpu      float64 // daemon CPU seconds over the window
}

// runLoad warms the daemon up untimed, then runs the timed window: one
// reader connection in a closed loop (it sends its next request when the
// previous one returns), and on append-mixed one open-loop appender on a
// fixed schedule beside it. A second reader plus this client would queue
// behind each other on two vCPUs and add scheduling tails, so reads use
// one connection.
func runLoad(ctx context.Context, d *daemon, w *workload, chk *checker, warmup, window time.Duration) (*loadStats, error) {
	st := &loadStats{}
	client := newClient()
	defer client.CloseIdleConnections()

	// Warm-up: cycle the warm list until warmup has elapsed and every warm
	// op has run at least once.
	warmEnd := time.Now().Add(warmup)
	for i := 0; i < len(w.warm) || time.Now().Before(warmEnd); i++ {
		status, _, err := send(ctx, client, d.base, w.warm[i%len(w.warm)])
		st.warmOps++
		if err != nil || status != http.StatusOK {
			st.warmFail++
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	var appendClient *http.Client
	if w.append != nil {
		appendClient = newClient()
		defer appendClient.CloseIdleConnections()
		// Establish the append connection's keep-alive before timing.
		if status, _, err := send(ctx, appendClient, d.base, op{method: "GET", path: "/healthz"}); err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("append connection warm-up failed: %v (status %d)", err, status)
		}
	}

	// gens is the newest generation the appender has had acknowledged, so a
	// read can assert it never observes an older one.
	var gens atomic.Int64
	gens.Store(chk.initialGen)
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	end := start.Add(window)
	var lastDone atomic.Int64
	var wg sync.WaitGroup
	if w.append != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.appends = runAppender(ctx, appendClient, d.base, w, chk.ledger, start, end, &gens, &lastDone)
		}()
	}
	st.reads = runReader(ctx, client, d.base, w, chk, start, end, &gens, &lastDone)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	st.cpu = cpu1 - cpu0
	st.window = time.Duration(lastDone.Load())
	return st, nil
}

// runReader sends read(0), read(1), ... back to back until end, checking
// each answer as it arrives.
func runReader(ctx context.Context, c *http.Client, base string, w *workload, chk *checker, start, end time.Time, gens, lastDone *atomic.Int64) []result {
	out := make([]result, 0, 1<<16)
	// last holds, per key, the last answer that passed the full check: a
	// byte-identical answer needs no second decode.
	last := make(map[string]*answer)
	for i := 0; ctx.Err() == nil; i++ {
		t0 := time.Now()
		if !t0.Before(end) {
			break
		}
		o := w.read(i)
		minGen := gens.Load()
		status, body, err := send(ctx, c, base, o)
		done := time.Now()
		res := result{i: i, latency: done.Sub(t0)}
		prev, seen := last[o.keyName]
		switch {
		case err != nil:
			res.err = err
		case seen && status == http.StatusOK && bytes.Equal(prev.body, body):
			res.ans = prev
			if prev.gen < minGen {
				res.err = fmt.Errorf("%s: generation %d older than the %d already acknowledged", o.keyName, prev.gen, minGen)
			}
		default:
			a := &answer{body: body, sampled: chk.sampled(i)}
			if a.gen, a.rows, res.err = chk.read(o, status, body, minGen); res.err == nil {
				if seen && !prev.sampled {
					prev.body = nil // no longer compared against
				}
				res.ans, last[o.keyName] = a, a
			}
		}
		out = append(out, res)
		storeMax(lastDone, done.Sub(start).Nanoseconds())
	}
	return out
}

// runAppender sends append(j) due at start + j*appendEvery. Latency is
// timed from the due time, so a slow append delays (and is charged to)
// the ones scheduled behind it. Lateness is how long the generator itself
// overslept past the moment it was both due and free.
func runAppender(ctx context.Context, c *http.Client, base string, w *workload, led *ledger, start, end time.Time, gens, lastDone *atomic.Int64) []result {
	var out []result
	every := time.Duration(w.appendEvery * float64(time.Second))
	prevDone := start
	for j := 0; ctx.Err() == nil; j++ {
		due := start.Add(time.Duration(j) * every)
		if !due.Before(end) {
			break
		}
		ready := due
		if prevDone.After(ready) {
			ready = prevDone
		}
		o := w.append(j)
		if d := time.Until(ready); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		status, body, err := send(ctx, c, base, o)
		done := time.Now()
		res := result{i: j, err: err, latency: done.Sub(due), lateness: sent.Sub(ready)}
		if err == nil {
			a := &answer{}
			if a.gen, a.rows, res.err = led.check(o, status, body); res.err == nil {
				res.ans = a
				storeMax(gens, a.gen)
			}
		}
		out = append(out, res)
		prevDone = done
		storeMax(lastDone, done.Sub(start).Nanoseconds())
	}
	return out
}

// storeMax raises v to x if x is larger.
func storeMax(v *atomic.Int64, x int64) {
	for {
		cur := v.Load()
		if x <= cur || v.CompareAndSwap(cur, x) {
			return
		}
	}
}
