package engine

import (
	"runtime"
	"testing"
)

// bigRows returns enough unique rows to push refinement over the
// parallelRefineMinRows threshold (domain^arity must exceed n for the
// dedup in randRows to terminate).
func bigRows(t testing.TB, n int) ([]string, []Tuple) {
	t.Helper()
	if n < parallelRefineMinRows {
		t.Fatalf("bigRows(%d) below the parallel threshold %d", n, parallelRefineMinRows)
	}
	return []string{"A", "B", "C", "D"}, randRows(7, n, 4, 16)
}

// TestParallelRefineParity drives refineParallel directly against
// refineSerial at several worker counts, level by level down a refinement
// chain: the group ids, counts, first rows and the probe contents must be
// bit-identical, because Extend's incremental path rebuilds its probe from
// the first rows of whichever scan built the grouping.
func TestParallelRefineParity(t *testing.T) {
	attrs, rows := bigRows(t, 12000)
	s := NewSnapshot(attrs, rows)
	for _, workers := range []int{2, 3, 8} {
		parentS := s.trivialGrouping()
		parentP := s.trivialGrouping()
		for col := range attrs {
			prS := newProbe(len(parentS.Counts), s.probeWidth(col), denseProbeBudget(s.n), len(parentS.Counts)*2)
			prP := newProbe(len(parentP.Counts), s.probeWidth(col), denseProbeBudget(s.n), len(parentP.Counts)*2)
			want := s.refineSerial(parentS, col, prS)
			got := s.refineParallel(parentP, col, prP, workers)
			sameGrouping(t, attrs[col], got, want)
			// The merged probe must answer every (parent, value) pair exactly
			// as the serially built one.
			for pid := int32(0); pid < int32(len(parentS.Counts)); pid++ {
				for v := Value(0); v < s.probeWidth(col); v++ {
					if a, b := prS.lookup(pid, v), prP.lookup(pid, v); a != b {
						t.Fatalf("workers=%d col=%d probe(%d,%d): serial %d, parallel %d", workers, col, pid, v, a, b)
					}
				}
			}
			parentS, parentP = want, got
		}
	}
}

// TestParallelRefineParityWeighted repeats the parity check on a weighted
// snapshot (group counts accumulate weights, not row tallies).
func TestParallelRefineParityWeighted(t *testing.T) {
	attrs, rows := bigRows(t, 9000)
	weights := make([]int64, len(rows))
	total := 0
	for i := range weights {
		weights[i] = int64(1 + i%5)
		total += int(weights[i])
	}
	s := NewWeightedSnapshot(attrs, rows, weights, total)
	parent := s.trivialGrouping()
	for col := range attrs {
		prS := newProbe(len(parent.Counts), s.probeWidth(col), denseProbeBudget(s.n), len(parent.Counts)*2)
		prP := newProbe(len(parent.Counts), s.probeWidth(col), denseProbeBudget(s.n), len(parent.Counts)*2)
		want := s.refineSerial(parent, col, prS)
		got := s.refineParallel(parent, col, prP, 4)
		sameGrouping(t, "weighted "+attrs[col], got, want)
		parent = want
	}
}

// TestParallelRefineMapProbe forces the map-probe form (a negative value
// makes probeWidth return 0) and checks parity there too.
func TestParallelRefineMapProbe(t *testing.T) {
	attrs, rows := bigRows(t, 9000)
	rows[17] = Tuple{-3, rows[17][1], rows[17][2], rows[17][3]}
	s := NewSnapshot(attrs, rows)
	if s.probeWidth(0) != 0 {
		t.Fatalf("probeWidth = %d, want 0 for a column with negative values", s.probeWidth(0))
	}
	parent := s.trivialGrouping()
	prS := newProbe(len(parent.Counts), s.probeWidth(0), denseProbeBudget(s.n), len(parent.Counts)*2)
	prP := newProbe(len(parent.Counts), s.probeWidth(0), denseProbeBudget(s.n), len(parent.Counts)*2)
	sameGrouping(t, "map-probe", s.refineParallel(parent, 0, prP, 8), s.refineSerial(parent, 0, prS))
}

// TestRefineDeterministicAcrossGOMAXPROCS builds the same groupings and
// entropies at GOMAXPROCS 1, 2 and 8 through the public API (so the
// serial/parallel dispatch in refine runs for real) and requires
// bit-identical ids and entropies everywhere. This is the determinism
// guarantee the daemon's -procs flag documents: worker count bounds CPU,
// never results.
func TestRefineDeterministicAcrossGOMAXPROCS(t *testing.T) {
	attrs, rows := bigRows(t, 10000)
	sets := [][]string{{"A"}, {"A", "B"}, {"B", "C", "D"}, {"A", "B", "C", "D"}}
	type outcome struct {
		ids [][]int32
		ent []float64
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var baseline *outcome
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		s := NewSnapshot(attrs, rows)
		// Extend past the cold build so the incremental path (rebuilding
		// probes from parallel-built groupings) is covered at every
		// parallelism too.
		s2 := s
		for _, set := range sets {
			if _, err := s2.Grouping(set...); err != nil {
				t.Fatal(err)
			}
		}
		s2 = s2.Extend(randRows(99, 300, 4, 16))
		got := &outcome{}
		for _, set := range sets {
			g, err := s2.Grouping(set...)
			if err != nil {
				t.Fatal(err)
			}
			h, err := s2.GroupEntropy(set...)
			if err != nil {
				t.Fatal(err)
			}
			got.ids = append(got.ids, g.IDs)
			got.ent = append(got.ent, h)
		}
		if baseline == nil {
			baseline = got
			continue
		}
		for k := range sets {
			if got.ent[k] != baseline.ent[k] {
				t.Fatalf("GOMAXPROCS=%d: entropy %v = %v, want %v", procs, sets[k], got.ent[k], baseline.ent[k])
			}
			for i := range got.ids[k] {
				if got.ids[k][i] != baseline.ids[k][i] {
					t.Fatalf("GOMAXPROCS=%d: %v id[%d] = %d, want %d", procs, sets[k], i, got.ids[k][i], baseline.ids[k][i])
				}
			}
		}
	}
}

// TestSetMaxProcsCap checks the -procs plumbing: the cap bounds maxWorkers,
// zero restores the GOMAXPROCS default, and a capped engine still produces
// the baseline ids.
func TestSetMaxProcsCap(t *testing.T) {
	defer SetMaxProcs(0)
	SetMaxProcs(1)
	if got := maxWorkers(8); got != 1 {
		t.Fatalf("maxWorkers(8) under cap 1 = %d", got)
	}
	SetMaxProcs(0)
	if got := maxWorkers(3); got != 3 {
		t.Fatalf("maxWorkers(3) uncapped = %d", got)
	}
	if got := maxWorkers(-5); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("maxWorkers(-5) = %d, want GOMAXPROCS", got)
	}
	SetMaxProcs(-2) // negative treated as "restore default"
	if got := maxWorkers(4); got != 4 {
		t.Fatalf("maxWorkers(4) after SetMaxProcs(-2) = %d", got)
	}

	attrs, rows := bigRows(t, 9000)
	want := NewSnapshot(attrs, rows)
	wantG, err := want.Grouping("A", "B", "C")
	if err != nil {
		t.Fatal(err)
	}
	SetMaxProcs(2)
	capped := NewSnapshot(attrs, rows)
	gotG, err := capped.Grouping("A", "B", "C")
	if err != nil {
		t.Fatal(err)
	}
	sameGrouping(t, "capped", gotG, wantG)
}
