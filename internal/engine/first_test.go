package engine

import (
	"fmt"
	"runtime"
	"testing"
)

// checkFirst asserts, for every grouping memoized on s, that First[g] is the
// smallest row whose id is g, so First is strictly increasing and names one
// representative row per group.
func checkFirst(t *testing.T, label string, s *Snapshot) {
	t.Helper()
	s.mu.Lock()
	entries := make(map[string]*memoEntry, len(s.memo))
	for k, ent := range s.memo {
		entries[k] = ent
	}
	s.mu.Unlock()
	if len(entries) == 0 {
		t.Fatalf("%s: nothing memoized", label)
	}
	for key, ent := range entries {
		g := ent.g
		if len(g.IDs) != s.n || len(g.First) != g.Groups() {
			t.Fatalf("%s %v: %d ids, %d first rows, %d groups over %d rows", label, ent.cols, len(g.IDs), len(g.First), g.Groups(), s.n)
		}
		want := make([]int32, g.Groups())
		for k := range want {
			want[k] = -1
		}
		for i, id := range g.IDs {
			if want[id] < 0 {
				want[id] = int32(i)
			}
		}
		for k, r := range g.First {
			if r != want[k] {
				t.Fatalf("%s %v (key %s): first[%d] = %d, want %d", label, ent.cols, key, k, r, want[k])
			}
			if k > 0 && r <= g.First[k-1] {
				t.Fatalf("%s %v: first rows not strictly increasing at %d: %d after %d", label, ent.cols, k, r, g.First[k-1])
			}
		}
	}
}

// warmAll memoizes the grouping of every nonempty subset of attrs.
func warmAll(t *testing.T, s *Snapshot, attrs []string) [][]string {
	t.Helper()
	var sets [][]string
	for mask := 1; mask < 1<<len(attrs); mask++ {
		var set []string
		for c, a := range attrs {
			if mask&(1<<c) != 0 {
				set = append(set, a)
			}
		}
		if _, err := s.Grouping(set...); err != nil {
			t.Fatal(err)
		}
		sets = append(sets, set)
	}
	return sets
}

// withProcs runs fn with GOMAXPROCS raised to at least procs and the engine
// capped at procs workers, so refinement really runs on procs chunks.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(procs, runtime.GOMAXPROCS(0))))
	defer SetMaxProcs(0)
	SetMaxProcs(procs)
	fn()
}

// TestFirstRowsSerial covers the serial refinement and the trivial grouping.
func TestFirstRowsSerial(t *testing.T) {
	attrs := []string{"A", "B", "C", "D"}
	s := NewSnapshot(attrs, randRows(11, 500, 4, 5))
	warmAll(t, s, attrs)
	if _, err := s.Grouping(); err != nil {
		t.Fatal(err)
	}
	checkFirst(t, "serial", s)
	if g, _ := s.Grouping(); len(g.First) != 1 || g.First[0] != 0 {
		t.Fatalf("trivial grouping first rows %v, want [0]", g.First)
	}
	empty := NewSnapshot(attrs, nil)
	if g, _ := empty.Grouping("A"); len(g.First) != 0 {
		t.Fatalf("empty snapshot first rows %v, want none", g.First)
	}
}

// TestFirstRowsParallel covers the chunked refinement and its merge at 1, 2
// and 4 workers; every worker count must record the same first rows.
func TestFirstRowsParallel(t *testing.T) {
	attrs, rows := bigRows(t, 12000)
	var want *Snapshot
	for _, procs := range []int{1, 2, 4} {
		withProcs(procs, func() {
			s := NewSnapshot(attrs, rows)
			sets := warmAll(t, s, attrs)
			checkFirst(t, fmt.Sprintf("procs=%d", procs), s)
			if want == nil {
				want = s
				return
			}
			for _, set := range sets {
				got, _ := s.Grouping(set...)
				base, _ := want.Grouping(set...)
				sameGrouping(t, fmt.Sprintf("procs=%d %v", procs, set), got, base)
			}
		})
	}
}

// TestFirstRowsWeighted covers weighted snapshots on both refinement paths.
func TestFirstRowsWeighted(t *testing.T) {
	attrs, rows := bigRows(t, 9000)
	weights := make([]int64, len(rows))
	total := 0
	for i := range weights {
		weights[i] = int64(1 + i%3)
		total += int(weights[i])
	}
	for _, procs := range []int{1, 2} {
		withProcs(procs, func() {
			s := NewWeightedSnapshot(attrs, rows, weights, total)
			warmAll(t, s, attrs)
			checkFirst(t, fmt.Sprintf("weighted procs=%d", procs), s)
		})
	}
}

// TestFirstRowsMapProbes forces map-form probes: a negative value makes a
// column's probe width 0, and a wide value makes parents × width overflow
// the dense budget.
func TestFirstRowsMapProbes(t *testing.T) {
	attrs, rows := bigRows(t, 9000)
	rows[17] = Tuple{-3, rows[17][1], rows[17][2], rows[17][3]}
	rows[4000] = Tuple{rows[4000][0], 1 << 24, rows[4000][2], rows[4000][3]}
	for _, procs := range []int{1, 2} {
		withProcs(procs, func() {
			s := NewSnapshot(attrs, rows)
			if s.probeWidth(0) != 0 {
				t.Fatalf("probeWidth(A) = %d, want 0", s.probeWidth(0))
			}
			warmAll(t, s, attrs)
			checkFirst(t, fmt.Sprintf("map probes procs=%d", procs), s)
		})
	}
}

// TestExtendFirstRowsAndProbeRebuild drives multi-step Extend chains whose
// batches bring dictionary codes beyond the parent's column maximum, a
// negative code (which turns dense probes into maps) and wide codes. After
// every step each memoized grouping's IDs, Counts and First must equal a
// from-scratch snapshot of the same rows.
func TestExtendFirstRowsAndProbeRebuild(t *testing.T) {
	attrs := []string{"A", "B", "C", "D"}
	cases := []struct {
		name    string
		base    []Tuple
		batches [][]Tuple
		procs   int
	}{
		{
			name: "serial",
			base: randRows(21, 300, 4, 6),
			batches: [][]Tuple{
				{{0, 1, 2, 3}, {6, 1, 2, 3}, {7, 8, 2, 3}},
				{{9, 9, 9, 9}, {0, 0, 0, 6}, {6, 0, 0, 6}},
				{{-1, 2, 3, 4}, {-1, 2, 3, 5}},
				{{5, 1 << 24, 0, 0}, {5, 1 << 24, 0, 1}, {10, 10, 10, 10}},
			},
			procs: 1,
		},
		{
			name: "parallel",
			base: randRows(22, 9000, 4, 16),
			batches: [][]Tuple{
				randRows(23, 200, 4, 20),
				{{16, 17, 18, 19}, {0, 0, 0, 25}},
				{{-5, 0, 0, 0}, {3, 3, 3, 1 << 23}},
			},
			procs: 2,
		},
	}
	for _, tc := range cases {
		withProcs(tc.procs, func() {
			all := append([]Tuple(nil), tc.base...)
			seen := make(map[string]bool, len(all))
			for _, r := range all {
				seen[fmt.Sprint(r)] = true
			}
			cur := NewSnapshot(attrs, all)
			sets := warmAll(t, cur, attrs)
			for step, batch := range tc.batches {
				var fresh []Tuple
				for _, r := range batch {
					if !seen[fmt.Sprint(r)] {
						seen[fmt.Sprint(r)] = true
						fresh = append(fresh, r)
					}
				}
				cur = cur.Extend(fresh)
				all = append(all, fresh...)
				label := fmt.Sprintf("%s step %d", tc.name, step)
				checkFirst(t, label, cur)
				cold := NewSnapshot(attrs, all)
				for _, set := range sets {
					got, _ := cur.Grouping(set...)
					want, _ := cold.Grouping(set...)
					sameGrouping(t, fmt.Sprintf("%s %v", label, set), got, want)
				}
			}
		})
	}
}
