package service

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ajdloss/internal/core"
	"ajdloss/internal/jointree"
)

// blockCSV builds the planted-MVD instance C ↠ A|B used across the tests:
// for each class c there is a block of a×b tuples, so {A,C},{B,C} is a
// lossless schema and {A},{B},{C} is lossy.
func blockCSV(classes, a, b int) string {
	var sb strings.Builder
	sb.WriteString("A,B,C\n")
	for c := 1; c <= classes; c++ {
		for i := 1; i <= a; i++ {
			for j := 1; j <= b; j++ {
				fmt.Fprintf(&sb, "%d,%d,%d\n", 10*c+i, 100*c+j, c)
			}
		}
	}
	return sb.String()
}

func newTestService(t testing.TB, cacheSize int) *Service {
	t.Helper()
	s := New(cacheSize)
	if _, err := s.Registry().Register("block", strings.NewReader(blockCSV(3, 2, 2)), true); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRegistry(t *testing.T) {
	s := New(16)
	d, err := s.Registry().Register("r1", strings.NewReader("A,B\n1,2\n3,4\n"), true)
	if err != nil {
		t.Fatal(err)
	}
	if d.Rel.N() != 2 || d.ID == 0 {
		t.Fatalf("dataset = %+v", d.Info())
	}
	// Duplicate name rejected.
	if _, err := s.Registry().Register("r1", strings.NewReader("A\n1\n"), true); err == nil {
		t.Fatal("duplicate name accepted")
	}
	// Malformed CSVs error, never panic (the ingestion-path bugfix).
	for _, bad := range []string{"A,A\n1,2\n", "A,,B\n1,2,3\n", "A,B\n1\n", ""} {
		if _, err := s.Registry().Register("bad", strings.NewReader(bad), true); err == nil {
			t.Errorf("malformed CSV %q accepted", bad)
		}
	}
	// Empty dataset rejected (analysis of an empty relation is undefined).
	if _, err := s.Registry().Register("empty", strings.NewReader("A,B\n"), true); err == nil {
		t.Fatal("empty dataset accepted")
	}
	infos := s.Registry().List()
	if len(infos) != 1 || infos[0].Name != "r1" || infos[0].Rows != 2 {
		t.Fatalf("List = %+v", infos)
	}
	if !s.Remove("r1") || s.Remove("r1") {
		t.Fatal("Remove misbehaved")
	}
}

func TestAnalyzeMatchesCore(t *testing.T) {
	s := newTestService(t, 16)
	got, err := s.Analyze("block", "A,C;B,C")
	if err != nil {
		t.Fatal(err)
	}
	d, _ := s.Registry().Get("block")
	want, err := core.Analyze(d.Rel, jointree.MustSchema([]string{"A", "C"}, []string{"B", "C"}))
	if err != nil {
		t.Fatal(err)
	}
	if got.J != want.J || got.Loss.Spurious != want.Loss.Spurious || got.Lossless != want.Lossless {
		t.Fatalf("view %+v vs report %+v", got, want)
	}
	if !got.Lossless {
		t.Fatal("planted lossless schema reported lossy")
	}
	// Lossy schema carries positive spurious count and J ≤ log(1+ρ).
	lossy, err := s.Analyze("block", "A;B;C")
	if err != nil {
		t.Fatal(err)
	}
	if lossy.Loss.Spurious <= 0 || lossy.J > lossy.Loss.LogOnePlusRho+1e-9 {
		t.Fatalf("lossy view: %+v", lossy)
	}

	// Error paths: unknown dataset, bad schema, cyclic schema.
	if _, err := s.Analyze("nope", "A;B"); err == nil || !strings.Contains(err.Error(), "unknown dataset") {
		t.Fatalf("unknown dataset error = %v", err)
	}
	if _, err := s.Analyze("block", ""); err == nil {
		t.Fatal("empty schema accepted")
	}
	if _, err := s.Analyze("block", "A,B;B,C;C,A"); err == nil {
		t.Fatal("cyclic schema accepted")
	}
}

func TestDiscoverFindsPlantedMVD(t *testing.T) {
	s := newTestService(t, 16)
	v, err := s.Discover("block", 1e-9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v.Dataset != "block" || v.Rows != 12 {
		t.Fatalf("view header: %+v", v)
	}
	found := false
	for _, m := range v.MVDs {
		if len(m.X) == 1 && m.X[0] == "C" && m.J < 1e-9 && m.Rho == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("planted MVD C->>A|B not found: %+v", v.MVDs)
	}
	if v.Best.J > 1e-9 {
		t.Fatalf("best candidate not lossless: %+v", v.Best)
	}
}

func TestEntropyKinds(t *testing.T) {
	s := newTestService(t, 16)
	d, _ := s.Registry().Get("block")
	n := float64(d.Rel.N())

	h, err := s.Entropy("block", []string{"A", "B", "C"}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Full-schema entropy of a set-valued relation is log N.
	if h.Kind != "entropy" || math.Abs(h.Nats-math.Log(n)) > 1e-12 {
		t.Fatalf("H(ABC) = %+v, want log %v", h, n)
	}
	if math.Abs(h.Bits-h.Nats/math.Ln2) > 1e-12 {
		t.Fatalf("bits/nats mismatch: %+v", h)
	}

	// The planted instance satisfies A ⫫ B | C: CMI must be 0, MI positive.
	cmi, err := s.Entropy("block", nil, []string{"A"}, []string{"B"}, []string{"C"})
	if err != nil {
		t.Fatal(err)
	}
	if cmi.Kind != "cmi" || cmi.Nats > 1e-9 {
		t.Fatalf("I(A;B|C) = %+v, want 0", cmi)
	}
	mi, err := s.Entropy("block", nil, []string{"A"}, []string{"B"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mi.Kind != "mi" || mi.Nats <= 0 {
		t.Fatalf("I(A;B) = %+v, want > 0", mi)
	}
	ce, err := s.Entropy("block", []string{"A"}, nil, nil, []string{"C"})
	if err != nil {
		t.Fatal(err)
	}
	if ce.Kind != "conditional_entropy" || ce.Nats <= 0 {
		t.Fatalf("H(A|C) = %+v, want > 0", ce)
	}

	// Bad combinations.
	for _, bad := range [][4][]string{
		{nil, nil, nil, nil},       // nothing
		{{"A"}, {"A"}, {"B"}, nil}, // attrs and a+b
		{nil, {"A"}, nil, nil},     // a without b
		{{"Z"}, nil, nil, nil},     // unknown attribute
	} {
		if _, err := s.Entropy("block", bad[0], bad[1], bad[2], bad[3]); err == nil {
			t.Errorf("bad entropy query %v accepted", bad)
		}
	}
}

// TestCoalescing proves the singleflight path: with caching disabled, many
// concurrent identical requests must execute the underlying analysis once
// (the first caller computes while the rest are parked on the in-flight
// call, released together with the same result).
func TestCoalescing(t *testing.T) {
	g := &flightGroup{}
	started := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int64
	go func() {
		_, _, _ = g.Do("k", func() (any, error) {
			close(started)
			<-release
			calls.Add(1)
			return "v", nil
		})
	}()
	<-started
	const waiters = 8
	var wg sync.WaitGroup
	results := make([]any, waiters)
	shared := make([]bool, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, sh := g.Do("k", func() (any, error) {
				calls.Add(1)
				return "v", nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], shared[i] = v, sh
		}(i)
	}
	// Wait until every waiter is registered on the in-flight call, then
	// release the leader; only then is "fn ran once" a deterministic fact.
	for {
		g.mu.Lock()
		c := g.m["k"]
		dups := 0
		if c != nil {
			dups = c.dups
		}
		g.mu.Unlock()
		if dups == waiters {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	for i := range results {
		if results[i] != "v" || !shared[i] {
			t.Fatalf("waiter %d got (%v, shared=%v)", i, results[i], shared[i])
		}
	}
}

// TestCoalescedAccounting parks a leader computation on a channel, lets N
// identical requests join it, and checks that the leader counts as computed
// only: computed=1 and coalesced=N, service-wide and in the namespace.
func TestCoalescedAccounting(t *testing.T) {
	s := newTestService(t, 0)
	d, err := s.dataset(s.DefaultNamespace(), "block")
	if err != nil {
		t.Fatal(err)
	}
	const key = "parked"
	started := make(chan struct{})
	release := make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		_, err := s.do(d, key, d.Generation(), func() (any, error) {
			close(started)
			<-release
			return "v", nil
		})
		leader <- err
	}()
	<-started
	const waiters = 6
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := s.do(d, key, d.Generation(), func() (any, error) {
				t.Error("a joiner ran the computation")
				return nil, nil
			})
			if err != nil || v != "v" {
				t.Errorf("joiner got (%v, %v)", v, err)
			}
		}()
	}
	for {
		s.sf.mu.Lock()
		joined := s.sf.m[key].dups
		s.sf.mu.Unlock()
		if joined == waiters {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Requests != waiters+1 || st.Computed != 1 || st.Coalesced != waiters {
		t.Fatalf("service stats: requests %d computed %d coalesced %d, want %d, 1, %d",
			st.Requests, st.Computed, st.Coalesced, waiters+1, waiters)
	}
	ns, ok := s.Registry().NamespaceStats(s.DefaultNamespace())
	if !ok {
		t.Fatal("default namespace missing")
	}
	if ns.Requests != waiters+1 || ns.Computed != 1 || ns.Coalesced != waiters {
		t.Fatalf("namespace stats: requests %d computed %d coalesced %d, want %d, 1, %d",
			ns.Requests, ns.Computed, ns.Coalesced, waiters+1, waiters)
	}
}

// TestCoalescingPanic: a panicking computation must not wedge its key — the
// panic re-raises in the computing goroutine, waiters get an error, and a
// later call with the same key computes fresh.
func TestCoalescingPanic(t *testing.T) {
	g := &flightGroup{}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate to the computing caller")
			}
		}()
		_, _, _ = g.Do("k", func() (any, error) { panic("boom") })
	}()
	// The key is free again: this must compute, not block or reuse state.
	v, err, _ := g.Do("k", func() (any, error) { return "fresh", nil })
	if err != nil || v != "fresh" {
		t.Fatalf("key wedged after panic: (%v, %v)", v, err)
	}
}

// TestStatsCountRejected: requests failing validation before the compute
// path still show up in Stats (requests and errors both increment).
func TestStatsCountRejected(t *testing.T) {
	s := newTestService(t, 16)
	before := s.Stats()
	if _, err := s.Analyze("no-such-dataset", "A;B"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := s.Entropy("block", nil, []string{"A"}, nil, nil); err == nil {
		t.Fatal("bad entropy combo accepted")
	}
	after := s.Stats()
	if after.Requests != before.Requests+2 || after.Errors != before.Errors+2 {
		t.Fatalf("rejected requests invisible to stats: before %+v after %+v", before, after)
	}
}

// TestServiceCoalescingUnderLoad drives identical concurrent entropy
// requests through the full service path with caching off and checks the
// accounting: every request is either computed, coalesced onto an in-flight
// computation, or (never, here) a cache hit — and far fewer computations
// than requests happen.
func TestServiceCoalescingUnderLoad(t *testing.T) {
	s := newTestService(t, 0) // cache disabled: only coalescing can dedup
	const goroutines = 16
	const perG = 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := s.Entropy("block", []string{"A", "B"}, nil, nil, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Requests != goroutines*perG {
		t.Fatalf("requests = %d, want %d", st.Requests, goroutines*perG)
	}
	if st.CacheHits != 0 {
		t.Fatalf("cache hits with cache disabled: %+v", st)
	}
	if st.Computed+st.Coalesced != st.Requests {
		t.Fatalf("accounting leak: %+v", st)
	}
	if st.Errors != 0 {
		t.Fatalf("errors under load: %+v", st)
	}
}

func TestResultCache(t *testing.T) {
	s := newTestService(t, 16)
	if _, err := s.Analyze("block", "A,C;B,C"); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	v1, err := s.Analyze("block", "A,C;B,C")
	if err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.CacheHits != before.CacheHits+1 || after.Computed != before.Computed {
		t.Fatalf("repeat request not served from cache: before %+v after %+v", before, after)
	}
	// Schema bag order must not fragment the cache key (canonical string).
	if _, err := s.Analyze("block", "B,C;A,C"); err != nil {
		t.Fatal(err)
	}
	_ = v1
	// Removing the dataset drops its cached results and the name.
	if !s.Remove("block") {
		t.Fatal("Remove failed")
	}
	if s.cache.Len() != 0 {
		t.Fatalf("cache still holds %d entries after dataset removal", s.cache.Len())
	}
	if _, err := s.Analyze("block", "A,C;B,C"); err == nil {
		t.Fatal("removed dataset still served")
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(2)
	c.Add("a", 1, "", 0)
	c.Add("b", 2, "", 0)
	if _, ok := c.Get("a"); !ok { // promote a; b is now LRU
		t.Fatal("a missing")
	}
	c.Add("c", 3, "", 0) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b not evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted wrongly", k)
		}
	}
	// Refresh in place does not grow the cache.
	c.Add("a", 10, "", 0)
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	if v, _ := c.Get("a"); v != 10 {
		t.Fatalf("refresh lost: %v", v)
	}
	c.RemovePrefix("a")
	if c.Len() != 1 {
		t.Fatalf("RemovePrefix left %d", c.Len())
	}
	// Zero capacity disables caching entirely.
	z := newLRUCache(0)
	z.Add("k", 1, "", 0)
	if _, ok := z.Get("k"); ok || z.Len() != 0 {
		t.Fatal("zero-capacity cache stored an entry")
	}
}

// TestConcurrentMixedWorkload is the -race acceptance scenario: analyze,
// discover, and entropy requests race against the same warm dataset (plus
// registrations of fresh datasets) without data races or inconsistent
// results.
func TestConcurrentMixedWorkload(t *testing.T) {
	s := newTestService(t, 32)
	want, err := s.Analyze("block", "A,C;B,C")
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 12
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				switch (g + i) % 4 {
				case 0:
					v, err := s.Analyze("block", "A,C;B,C")
					if err != nil {
						t.Error(err)
					} else if v.J != want.J || v.Loss.Spurious != want.Loss.Spurious {
						t.Errorf("inconsistent analyze result: %+v", v)
					}
				case 1:
					if _, err := s.Entropy("block", []string{"A", "B"}, nil, nil, nil); err != nil {
						t.Error(err)
					}
				case 2:
					if _, err := s.Discover("block", 1e-9, 1); err != nil {
						t.Error(err)
					}
				case 3:
					name := "tmp" + strconv.Itoa(g)
					if _, err := s.Registry().Register(name, strings.NewReader("X,Y\n1,2\n2,1\n"), true); err == nil {
						if _, err := s.Entropy(name, []string{"X"}, nil, nil, nil); err != nil {
							t.Error(err)
						}
						s.Remove(name)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Errors != 0 {
		t.Fatalf("errors during mixed workload: %+v", st)
	}
}
