package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strings"

	"ajdloss/internal/core"
	"ajdloss/internal/fd"
	"ajdloss/internal/infotheory"
	"ajdloss/internal/jointree"
	"ajdloss/internal/relation"
	"ajdloss/internal/service"
)

// checker validates every response as it arrives (status, shape, echoed
// generation) and, after the window, recomputes a seeded sample of answers
// in-process on a reference relation.
type checker struct {
	seed        uint64
	initialGen  int64
	initialRows int
	sampleEvery uint64 // 0: recompute every distinct answer
	ledger      *ledger
	header      []string
	initial     [][]string
}

func newChecker(w *workload, seed uint64, info service.Info) (*checker, error) {
	records, err := csv.NewReader(bytes.NewReader(w.csv)).ReadAll()
	if err != nil {
		return nil, err
	}
	c := &checker{seed: seed, initialGen: info.Generation, initialRows: info.Rows, sampleEvery: w.sampleEvery,
		header: records[0], initial: records[1:]}
	if w.append != nil {
		c.ledger = newLedger(c.initial, info)
	}
	return c, nil
}

// sampled reports whether the answer to the i-th timed read joins the
// sample the oracle recomputes: every distinct answer when sampleEvery is
// 0, otherwise a seeded one in sampleEvery.
func (c *checker) sampled(i int) bool {
	if c.sampleEvery == 0 {
		return true
	}
	x := c.seed ^ uint64(i)*0x9e3779b97f4a7c15
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 29
	return x%c.sampleEvery == 0
}

// read checks one read answer and returns the generation and row count it
// echoed.
func (c *checker) read(o op, status int, body []byte, minGen int64) (int64, int, error) {
	if status != http.StatusOK {
		return 0, 0, fmt.Errorf("%s %s: status %d: %.200s", o.method, o.path, status, body)
	}
	gen, rows, err := readShape(o, body)
	if err != nil {
		return 0, 0, fmt.Errorf("%s %s: %w", o.method, o.path, err)
	}
	if gen < minGen {
		return 0, 0, fmt.Errorf("%s: generation %d older than the %d already acknowledged", o.keyName, gen, minGen)
	}
	if c.ledger == nil && (gen != c.initialGen || rows != c.initialRows) {
		return 0, 0, fmt.Errorf("%s: echoed generation %d rows %d, dataset has %d and %d", o.keyName, gen, rows, c.initialGen, c.initialRows)
	}
	return gen, rows, nil
}

func readShape(o op, body []byte) (int64, int, error) {
	switch o.kind {
	case "analyze":
		var v service.ReportView
		if err := json.Unmarshal(body, &v); err != nil {
			return 0, 0, err
		}
		s, err := jointree.ParseSchema(o.schema)
		if err != nil {
			return 0, 0, err
		}
		if want := s.Reduced().String(); v.Schema != want {
			return 0, 0, fmt.Errorf("report for schema %s, asked %s", v.Schema, want)
		}
		if v.N <= 0 || v.Loss.N != v.N || v.Loss.JoinSize < int64(v.N) || v.Loss.Spurious != v.Loss.JoinSize-int64(v.N) {
			return 0, 0, fmt.Errorf("inconsistent loss %+v for n=%d", v.Loss, v.N)
		}
		if v.J < 0 || !near(v.JBits, v.J/math.Ln2) || v.Lossless != (v.Loss.Spurious == 0) {
			return 0, 0, fmt.Errorf("inconsistent report j=%g j_bits=%g lossless=%v", v.J, v.JBits, v.Lossless)
		}
		return v.Generation, v.N, nil
	case "entropy":
		var v service.EntropyView
		if err := json.Unmarshal(body, &v); err != nil {
			return 0, 0, err
		}
		if v.Kind != "entropy" || v.Dataset != datasetName || !slices.Equal(v.Attrs, o.attrs) || v.Nats < 0 || !near(v.Bits, v.Nats/math.Ln2) {
			return 0, 0, fmt.Errorf("unexpected entropy answer %+v", v)
		}
		return v.Generation, v.Rows, nil
	case "batch":
		var v service.BatchView
		if err := json.Unmarshal(body, &v); err != nil {
			return 0, 0, err
		}
		if v.Dataset != datasetName || len(v.Results) != len(o.batch) {
			return 0, 0, fmt.Errorf("batch answered %d of %d queries for %q", len(v.Results), len(o.batch), v.Dataset)
		}
		for i, r := range v.Results {
			q := o.batch[i]
			ok := r.Query.Kind == q.Kind
			if q.Kind == "fd" {
				ok = ok && r.Holds != nil && r.G3 != nil && *r.G3 >= 0 && *r.Holds == (*r.G3 == 0)
			} else {
				ok = ok && r.Nats != nil && *r.Nats >= -1e-12
			}
			if !ok {
				return 0, 0, fmt.Errorf("batch result %d malformed for %s query", i, q.Kind)
			}
		}
		return v.Generation, v.Rows, nil
	case "discover":
		var v service.DiscoverView
		if err := json.Unmarshal(body, &v); err != nil {
			return 0, 0, err
		}
		if v.Dataset != datasetName || v.Target != o.target || v.MaxSep != o.maxSep ||
			len(v.ChowLiu.Bags) == 0 || len(v.Best.Bags) == 0 || v.ChowLiu.Loss.N != v.Rows || v.Contractions < 0 {
			return 0, 0, fmt.Errorf("malformed discover answer")
		}
		return v.Generation, v.Rows, nil
	}
	return 0, 0, fmt.Errorf("unknown op kind %q", o.kind)
}

// ledger is the bench's own account of the appended rows: which are new
// and which duplicates, and the row count at every generation.
type ledger struct {
	seen   map[string]bool
	rows   int
	gen    int64
	rowsAt map[int64]int
	log    []ledgerEntry
	added  int
	dups   int
}

type ledgerEntry struct {
	rows [][]string
	gen  int64 // generation after the append
}

func newLedger(initial [][]string, info service.Info) *ledger {
	l := &ledger{seen: make(map[string]bool, len(initial)), rows: info.Rows, gen: info.Generation,
		rowsAt: map[int64]int{info.Generation: info.Rows}}
	for _, r := range initial {
		l.seen[strings.Join(r, "\x00")] = true
	}
	return l
}

// check applies one append to the ledger and compares the daemon's answer.
func (l *ledger) check(o op, status int, body []byte) (int64, int, error) {
	if status != http.StatusOK {
		return 0, 0, fmt.Errorf("append: status %d: %.200s", status, body)
	}
	var v service.AppendView
	if err := json.Unmarshal(body, &v); err != nil {
		return 0, 0, fmt.Errorf("append: %w", err)
	}
	added := 0
	for _, r := range o.rows {
		k := strings.Join(r, "\x00")
		if !l.seen[k] {
			l.seen[k] = true
			added++
		}
	}
	l.rows += added
	if added > 0 {
		l.gen++
	}
	l.added += added
	l.dups += len(o.rows) - added
	l.rowsAt[l.gen] = l.rows
	l.log = append(l.log, ledgerEntry{rows: o.rows, gen: l.gen})
	if v.Dataset != datasetName || v.Appended != added || v.Duplicates != len(o.rows)-added || v.Rows != l.rows || v.Generation != l.gen {
		return 0, 0, fmt.Errorf("append answered appended=%d duplicates=%d rows=%d generation=%d, ledger expects %d %d %d %d",
			v.Appended, v.Duplicates, v.Rows, v.Generation, added, len(o.rows)-added, l.rows, l.gen)
	}
	return v.Generation, v.Rows, nil
}

// verify runs the post-window checks, marks failing results, and returns
// the first few failures as notes.
func (c *checker) verify(w *workload, st *loadStats, final service.Info) []string {
	var notes []string
	mark := func(r *result, err error) {
		r.err = err
		if len(notes) < 5 {
			notes = append(notes, err.Error())
		}
	}
	if c.ledger != nil {
		for i := range st.reads {
			r := &st.reads[i]
			if r.err != nil {
				continue
			}
			if want, ok := c.ledger.rowsAt[r.ans.gen]; !ok || want != r.ans.rows {
				mark(r, fmt.Errorf("%s: generation %d echoed %d rows, ledger has %d (known %v)", w.read(r.i).keyName, r.ans.gen, r.ans.rows, want, ok))
			}
		}
		if final.Rows != c.ledger.rows || final.Generation != c.ledger.gen {
			err := fmt.Errorf("after the run the dataset has %d rows at generation %d, ledger expects %d at %d",
				final.Rows, final.Generation, c.ledger.rows, c.ledger.gen)
			if n := len(st.appends); n > 0 {
				mark(&st.appends[n-1], err)
			} else {
				notes = append(notes, err.Error())
			}
		}
	}
	// Each sampled answer is recomputed once; every request that received
	// it (byte-identical) fails with it.
	refs := make(map[int64]*relation.Relation)
	done := make(map[*answer]bool)
	for i := range st.reads {
		r := &st.reads[i]
		if r.err != nil || !r.ans.sampled || done[r.ans] {
			continue
		}
		done[r.ans] = true
		o := w.read(r.i)
		if o.kind == "discover" {
			continue
		}
		ref, ok := refs[r.ans.gen]
		if !ok {
			var err error
			if ref, err = c.reference(r.ans.gen); err != nil {
				mark(r, err)
				continue
			}
			refs[r.ans.gen] = ref
		}
		if err := compareAnswer(ref, o, r.ans.body); err != nil {
			r.ans.wrong = fmt.Errorf("%s at generation %d: %w", o.keyName, r.ans.gen, err)
			if len(notes) < 5 {
				notes = append(notes, r.ans.wrong.Error())
			}
		}
	}
	return notes
}

// reference rebuilds the dataset at generation gen from the generated CSV
// and the ledger's appended rows, through a fresh CSV parse.
func (c *checker) reference(gen int64) (*relation.Relation, error) {
	var b bytes.Buffer
	cw := csv.NewWriter(&b)
	cw.Write(c.header)
	cw.WriteAll(c.initial)
	if c.ledger != nil {
		for _, e := range c.ledger.log {
			if e.gen > gen {
				break
			}
			cw.WriteAll(e.rows)
		}
	}
	cw.Flush()
	r, _, err := relation.ReadCSV(&b, true)
	return r, err
}

// compareAnswer recomputes an analyze, entropy or batch answer with core
// and infotheory on the reference relation.
func compareAnswer(ref *relation.Relation, o op, body []byte) error {
	switch o.kind {
	case "analyze":
		var got service.ReportView
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		s, err := jointree.ParseSchema(o.schema)
		if err != nil {
			return err
		}
		rep, err := core.Analyze(ref, s)
		if err != nil {
			return err
		}
		want := service.NewReportView(rep)
		if got.N != want.N || got.Loss.JoinSize != want.Loss.JoinSize || got.Loss.Spurious != want.Loss.Spurious ||
			got.Lossless != want.Lossless || len(got.Support) != len(want.Support) {
			return fmt.Errorf("counts differ: got n=%d join=%d, want n=%d join=%d", got.N, got.Loss.JoinSize, want.N, want.Loss.JoinSize)
		}
		for _, p := range [][2]float64{{got.J, want.J}, {got.KL, want.KL}, {got.Loss.Rho, want.Loss.Rho},
			{got.RhoLower, want.RhoLower}, {got.MaxCMI, want.MaxCMI}, {got.SumCMI, want.SumCMI}, {got.SumLogLoss, want.SumLogLoss}} {
			if !near(p[0], p[1]) {
				return fmt.Errorf("report value %g, reference %g", p[0], p[1])
			}
		}
		for i := range got.Support {
			if got.Support[i].Loss.JoinSize != want.Support[i].Loss.JoinSize || !near(got.Support[i].CMI, want.Support[i].CMI) {
				return fmt.Errorf("support MVD %d differs", i)
			}
		}
	case "entropy":
		var got service.EntropyView
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want, err := infotheory.Entropy(ref, o.attrs...)
		if err != nil {
			return err
		}
		if !near(got.Nats, want) {
			return fmt.Errorf("entropy %g, reference %g", got.Nats, want)
		}
	case "batch":
		var got service.BatchView
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		for i, q := range o.batch {
			r := got.Results[i]
			switch q.Kind {
			case "entropy":
				want, err := infotheory.ConditionalEntropy(ref, q.Attrs, q.Given)
				if err != nil {
					return err
				}
				if !near(*r.Nats, want) {
					return fmt.Errorf("batch entropy %g, reference %g", *r.Nats, want)
				}
			case "mi":
				want, err := infotheory.ConditionalMutualInformation(ref, q.A, q.B, q.Given)
				if err != nil {
					return err
				}
				if !near(*r.Nats, want) {
					return fmt.Errorf("batch mi %g, reference %g", *r.Nats, want)
				}
			case "fd":
				f := fd.FD{X: q.X, Y: q.Y}
				holds, err := fd.Holds(ref, f)
				if err != nil {
					return err
				}
				g3, err := fd.G3Error(ref, f)
				if err != nil {
					return err
				}
				if *r.Holds != holds || !near(*r.G3, g3) {
					return fmt.Errorf("batch fd holds=%v g3=%g, reference %v %g", *r.Holds, *r.G3, holds, g3)
				}
			default:
				return fmt.Errorf("no reference for batch kind %q", q.Kind)
			}
		}
	default:
		return fmt.Errorf("no reference for %q", o.kind)
	}
	return nil
}

// near compares two computed reals to a relative 1e-9.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
