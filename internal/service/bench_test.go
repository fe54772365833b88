package service

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ajdloss/internal/persist"
	"ajdloss/internal/randrel"
	"ajdloss/internal/relation"
)

// benchService registers a 6-attribute random relation (the discovery
// stress shape from the repo's bench harness) as a warm dataset.
func benchService(b *testing.B, n, cacheSize int) *Service {
	b.Helper()
	model := randrel.Model{
		Attrs:   []string{"A", "B", "C", "D", "E", "F"},
		Domains: []int{16, 16, 16, 16, 16, 16},
		N:       n,
	}
	r, err := model.Sample(randrel.NewRand(11))
	if err != nil {
		b.Fatal(err)
	}
	var csv bytes.Buffer
	if err := relation.WriteCSV(&csv, r, nil); err != nil {
		b.Fatal(err)
	}
	s := New(cacheSize)
	if _, err := s.Registry().Register("bench", bytes.NewReader(csv.Bytes()), true); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkServeMixed is the serving-throughput benchmark of EXPERIMENTS.md:
// concurrent clients issue a mixed analyze/entropy/discover workload against
// one registered dataset. With the warm engine, the LRU cache, and request
// coalescing, steady-state requests are answered from memoized results, so
// ns/op ≈ per-request latency at full parallelism (req/sec reported
// explicitly as a custom metric).
func BenchmarkServeMixed(b *testing.B) {
	for _, n := range []int{2000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := benchService(b, n, 128)
			schemas := []string{"A,B;B,C;C,D;D,E;E,F", "A,B,C;C,D,E;E,F", "A,B,C,D;D,E,F"}
			entropies := [][]string{{"A", "B"}, {"C", "D"}, {"A", "E", "F"}, {"B"}}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					i++
					switch i % 8 {
					case 0:
						if _, err := s.Discover("bench", 0.01, 1); err != nil {
							b.Fatal(err)
						}
					case 1, 2, 3:
						if _, err := s.Analyze("bench", schemas[i%len(schemas)]); err != nil {
							b.Fatal(err)
						}
					default:
						attrs := entropies[i%len(entropies)]
						if _, err := s.Entropy("bench", attrs, nil, nil, nil); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
		})
	}
}

// BenchmarkHandlerHit measures the HTTP hit path in-process: NewHandler
// driven through httptest.NewRecorder over a warmed key set shaped like the
// perfbench hot-mixed workload (analyze, entropy, POST batch and discover on
// a 10k-row relation, a quarter on the legacy routes). Every timed request
// is an LRU hit, so routing, body decode, validation, schema parsing, key
// building and the response write are what it measures.
func BenchmarkHandlerHit(b *testing.B) {
	s := benchService(b, 10000, 256)
	h := NewHandler(s)
	type req struct{ method, path, body string }
	batch := func(qs string) string { return `{"dataset":"bench","queries":[` + qs + `]}` }
	keys := []req{
		{"GET", "/v1/default/analyze?dataset=bench&schema=A,B|B,C|C,D|D,E|E,F", ""},
		{"GET", "/v1/default/analyze?dataset=bench&schema=A,B,C|C,D,E|E,F", ""},
		{"GET", "/analyze?dataset=bench&schema=A,B,C,D|D,E,F", ""},
		{"GET", "/v1/default/entropy?dataset=bench&attrs=A,B", ""},
		{"GET", "/entropy?dataset=bench&attrs=C,D", ""},
		{"GET", "/v1/default/entropy?dataset=bench&attrs=A,E,F", ""},
		{"GET", "/v1/default/entropy?dataset=bench&attrs=B", ""},
		{"POST", "/v1/default/batch", batch(`{"kind":"entropy","attrs":["A","B"]},{"kind":"mi","a":["A"],"b":["C"]},{"kind":"fd","x":["A","B"],"y":["C"]}`)},
		{"POST", "/batch", batch(`{"kind":"entropy","attrs":["C","D","E"]},{"kind":"mi","a":["D"],"b":["E","F"]},{"kind":"fd","x":["D","E"],"y":["F"]}`)},
		{"POST", "/v1/default/batch", batch(`{"kind":"entropy","attrs":["A","F"]},{"kind":"mi","a":["B"],"b":["F"]},{"kind":"fd","x":["B","C"],"y":["A"]}`)},
		{"GET", "/v1/default/discover?dataset=bench&target=0.01&maxsep=1", ""},
		{"GET", "/discover?dataset=bench&target=0.05&maxsep=1", ""},
	}
	serveKey := func(k req) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(k.method, k.path, strings.NewReader(k.body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("%s %s: %d %s", k.method, k.path, rec.Code, rec.Body)
		}
	}
	for _, k := range keys {
		serveKey(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveKey(keys[i%len(keys)])
	}
}

// BenchmarkServeColdAnalyze measures the other end of the serving spectrum:
// every request analyzes a distinct schema, so neither the cache nor
// coalescing can help and each request pays a real computation (the engine
// memo still amortizes the entropy terms).
func BenchmarkServeColdAnalyze(b *testing.B) {
	s := benchService(b, 2000, 0)
	attrs := []string{"A", "B", "C", "D", "E", "F"}
	// Rotate the chain's start attribute: each rotation is a distinct
	// covering chain schema, so requests cycle through 6 different keys.
	schemas := make([]string, len(attrs))
	for r := range attrs {
		var bags []string
		for k := 0; k+1 < len(attrs); k++ {
			bags = append(bags, attrs[(r+k)%6]+","+attrs[(r+k+1)%6])
		}
		schemas[r] = strings.Join(bags, ";")
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			if _, err := s.Analyze("bench", schemas[i%len(schemas)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// benchDurableService is benchService with durability enabled under dir.
func benchDurableService(b *testing.B, dir string, n int, sync bool) *Service {
	b.Helper()
	store, err := persist.Open(dir, persist.Options{Sync: sync, CompactAt: -1})
	if err != nil {
		b.Fatal(err)
	}
	s := New(0)
	if _, err := s.EnableDurability(store); err != nil {
		b.Fatal(err)
	}
	model := randrel.Model{
		Attrs:   []string{"A", "B", "C", "D", "E", "F"},
		Domains: []int{16, 16, 16, 16, 16, 16},
		N:       n,
	}
	r, err := model.Sample(randrel.NewRand(11))
	if err != nil {
		b.Fatal(err)
	}
	var csv bytes.Buffer
	if err := relation.WriteCSV(&csv, r, nil); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Registry().Register("bench", bytes.NewReader(csv.Bytes()), true); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkAppendBatchDurable measures the WAL's overhead on the streaming
// append hot path: the same 100-row batches against an in-memory dataset,
// a durable one (write-ahead, no fsync — the default posture), and a
// durable one with -fsync. The acceptance bar for the durability layer is
// the wal variant staying within 2x of memory.
func BenchmarkAppendBatchDurable(b *testing.B) {
	const batch = 100
	variants := []struct {
		name string
		mk   func(b *testing.B) *Service
	}{
		{"memory", func(b *testing.B) *Service { return benchService(b, 10000, 0) }},
		{"wal", func(b *testing.B) *Service { return benchDurableService(b, b.TempDir(), 10000, false) }},
		{"wal-fsync", func(b *testing.B) *Service { return benchDurableService(b, b.TempDir(), 10000, true) }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			s := v.mk(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				records := make([][]string, batch)
				for j := range records {
					rec := make([]string, 6)
					for c := range rec {
						rec[c] = fmt.Sprintf("%d", 100+(i*batch+j)*31%4096+c)
					}
					records[j] = rec
				}
				if _, err := s.Append("bench", records, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecovery compares bringing a 20k-row dataset back at boot from
// the durable store (checkpoint + WAL tail + warm-up) against the only
// pre-durability alternative: a cold full CSV re-ingest. Recovery skips
// CSV parsing and row hashing entirely — it reloads decoded columns.
func BenchmarkRecovery(b *testing.B) {
	const n = 20000
	dir := b.TempDir()
	s0 := benchDurableService(b, dir, n, false)
	for i := 0; i < 20; i++ {
		records := make([][]string, 50)
		for j := range records {
			rec := make([]string, 6)
			for c := range rec {
				rec[c] = fmt.Sprintf("%d", 200+(i*50+j)*17%4096+c)
			}
			records[j] = rec
		}
		if _, err := s0.Append("bench", records, false); err != nil {
			b.Fatal(err)
		}
	}
	var csv bytes.Buffer
	d, _ := s0.Registry().Get("bench")
	if err := relation.WriteCSV(&csv, d.View(), d.Enc); err != nil {
		b.Fatal(err)
	}
	b.Run("recover", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			store, err := persist.Open(dir, persist.Options{})
			if err != nil {
				b.Fatal(err)
			}
			s := New(0)
			recovered, err := s.EnableDurability(store)
			if err != nil || len(recovered) != 1 {
				b.Fatalf("recovered %v (err %v)", recovered, err)
			}
			for _, rd := range s.Registry().All() {
				rd.store.Close()
			}
		}
	})
	b.Run("cold-reingest", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := New(0)
			if _, err := s.Registry().Register("bench", bytes.NewReader(csv.Bytes()), true); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMultiDatasetBoot is the N-dataset boot benchmark of the raw-speed
// pass: a store of 50 cleanly checkpointed datasets (empty WALs — the state
// a graceful shutdown leaves) is recovered lazily (headers only; columns
// decode on first access) vs eagerly (MaterializeAll decodes every column at
// boot, the pre-lazy behavior). Lazy boot cost is O(datasets), eager is
// O(total bytes), so the gap widens linearly with fleet size.
func BenchmarkMultiDatasetBoot(b *testing.B) {
	const datasets = 50
	dir := b.TempDir()
	{
		store, err := persist.Open(dir, persist.Options{CompactAt: -1})
		if err != nil {
			b.Fatal(err)
		}
		s := New(0)
		if _, err := s.EnableDurability(store); err != nil {
			b.Fatal(err)
		}
		model := randrel.Model{
			Attrs:   []string{"A", "B", "C", "D", "E", "F"},
			Domains: []int{16, 16, 16, 16, 16, 16},
			N:       2000,
		}
		r, err := model.Sample(randrel.NewRand(11))
		if err != nil {
			b.Fatal(err)
		}
		var csv bytes.Buffer
		if err := relation.WriteCSV(&csv, r, nil); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < datasets; i++ {
			name := fmt.Sprintf("bench-%02d", i)
			if _, err := s.Registry().Register(name, bytes.NewReader(csv.Bytes()), true); err != nil {
				b.Fatal(err)
			}
		}
		for _, d := range s.Registry().All() {
			d.store.Close()
		}
	}
	boot := func(b *testing.B, eager bool) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			store, err := persist.Open(dir, persist.Options{})
			if err != nil {
				b.Fatal(err)
			}
			s := New(0)
			recovered, err := s.EnableDurability(store)
			if err != nil || len(recovered) != datasets {
				b.Fatalf("recovered %d datasets (err %v)", len(recovered), err)
			}
			if eager {
				if err := s.MaterializeAll(); err != nil {
					b.Fatal(err)
				}
			}
			for _, d := range s.Registry().All() {
				d.closeLazy()
				d.store.Close()
			}
		}
	}
	b.Run("lazy", func(b *testing.B) { boot(b, false) })
	b.Run("eager", func(b *testing.B) { boot(b, true) })
}
