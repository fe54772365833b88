package ajdloss

// Tests for the per-snapshot memo of MVD join sizes behind core.MVDLoss and
// Analyze's decomposition: a memoized size must be the count itself, a
// snapshot made by an append must count afresh, and concurrent analyses of
// one snapshot must agree (run under -race in CI).

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"ajdloss/internal/core"
	"ajdloss/internal/infotheory"
	"ajdloss/internal/join"
	"ajdloss/internal/jointree"
	"ajdloss/internal/relation"
)

// projectionMVDCount is the same size by join.CountTree over the two bag
// projections of a fresh copy of rel's rows.
func projectionMVDCount(t *testing.T, rel *relation.Relation, xy, xz []string) int64 {
	t.Helper()
	base := relation.FromRows(rel.Attrs(), rel.Rows())
	tree, err := jointree.NewJoinTree([][]string{xy, xz}, [][2]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	rels, err := join.Projections(base, tree.Schema())
	if err != nil {
		t.Fatal(err)
	}
	size, err := join.CountTree(tree, rels)
	if err != nil {
		t.Fatal(err)
	}
	return size
}

func sharedAttrs(xy, xz []string) []string {
	var shared []string
	for _, a := range xy {
		if slices.Contains(xz, a) {
			shared = append(shared, a)
		}
	}
	return shared
}

// TestMVDJoinSizeMemoParity: on random instances, every edge MVD's size as
// MVDLoss reports it — counted, then read back from the memo, also with Y
// and Z swapped — equals a direct join.CountGroupingsCols call on the same
// snapshot and join.CountTree over the projections, as integers.
func TestMVDJoinSizeMemoParity(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		tree, r := countInstance(t, seed)
		snap := r.Snapshot()
		for _, m := range tree.EdgeMVDs() {
			xy, xz := infotheory.Union(m.X, m.Y), infotheory.Union(m.X, m.Z)
			var sets [3][]int
			for i, attrs := range [][]string{xy, xz, sharedAttrs(xy, xz)} {
				var err error
				if sets[i], err = snap.Columns(attrs); err != nil {
					t.Fatal(err)
				}
			}
			direct, err := join.CountGroupingsCols(snap, [][]int{sets[0], sets[1]}, []int{-1, 0}, [][]int{nil, sets[2]})
			if err != nil {
				t.Fatal(err)
			}
			proj := projectionMVDCount(t, r, xy, xz)
			swapped := jointree.MVD{X: m.X, Y: m.Z, Z: m.Y}
			for k, mv := range []jointree.MVD{m, m, swapped} {
				l, err := core.MVDLoss(r, mv)
				if err != nil {
					t.Fatal(err)
				}
				if l.JoinSize != direct || l.JoinSize != proj {
					t.Fatalf("seed %d %s (call %d): MVDLoss join %d, CountGroupingsCols %d, CountTree %d", seed, mv, k, l.JoinSize, direct, proj)
				}
			}
		}
	}
}

// TestMVDJoinSizeAfterAppend: an append publishes a snapshot whose memo
// starts empty, so the MVD size is recounted on the new rows rather than
// inherited from the parent snapshot.
func TestMVDJoinSizeAfterAppend(t *testing.T) {
	r := relation.FromRows([]string{"A", "B", "C"}, []relation.Tuple{{0, 0, 0}, {0, 1, 1}})
	m := jointree.MVD{X: []string{"A"}, Y: []string{"B"}, Z: []string{"C"}}
	before, err := core.MVDLoss(r, m)
	if err != nil {
		t.Fatal(err)
	}
	if before.JoinSize != 4 {
		t.Fatalf("join before the append = %d, want 4", before.JoinSize)
	}
	if _, err := r.Append([]relation.Tuple{{0, 2, 2}, {1, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	after, err := core.MVDLoss(r, m)
	if err != nil {
		t.Fatal(err)
	}
	if want := projectionMVDCount(t, r, []string{"A", "B"}, []string{"A", "C"}); after.JoinSize != want || want != 10 {
		t.Fatalf("join after the append = %d, projection count %d, want 10", after.JoinSize, want)
	}
}

// TestConcurrentAnalyzeOneSnapshot runs Analyze and MVDLoss for several
// schemas from many goroutines against one never-warmed relation, so the
// groupings, entropies and MVD join sizes of one snapshot fill concurrently.
// Every result must equal a sequential analysis of an independent copy.
func TestConcurrentAnalyzeOneSnapshot(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		tree, r := countInstance(t, seed)
		trees := []*jointree.JoinTree{tree}
		for e := range tree.Edges {
			if c, err := tree.ContractEdge(e); err == nil {
				trees = append(trees, c)
			}
		}
		base := relation.FromRows(r.Attrs(), r.Rows())
		want := make([]*core.Report, len(trees))
		for i, tr := range trees {
			var err error
			if want[i], err = core.Analyze(base, tr.Schema()); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range trees {
					i := (g + k) % len(trees)
					rep, err := core.Analyze(r, trees[i].Schema())
					if err != nil {
						t.Error(err)
						return
					}
					if err := sameReport(rep, want[i]); err != nil {
						t.Errorf("seed %d schema %s: %v", seed, trees[i].Schema(), err)
						return
					}
					for _, term := range want[i].PerMVD {
						l, err := core.MVDLoss(r, term.MVD)
						if err != nil || l != term.Loss {
							t.Errorf("seed %d MVD %s: %+v, %v; want %+v", seed, term.MVD, l, err, term.Loss)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}

// sameReport compares the loss integers, KL and J of two reports exactly.
func sameReport(got, want *core.Report) error {
	if got.Loss != want.Loss || got.KL != want.KL || got.J != want.J {
		return fmt.Errorf("loss %+v KL %v J %v, want %+v KL %v J %v", got.Loss, got.KL, got.J, want.Loss, want.KL, want.J)
	}
	if len(got.PerMVD) != len(want.PerMVD) {
		return fmt.Errorf("%d MVD terms, want %d", len(got.PerMVD), len(want.PerMVD))
	}
	for i := range got.PerMVD {
		if got.PerMVD[i].Loss != want.PerMVD[i].Loss {
			return fmt.Errorf("MVD %s loss %+v, want %+v", got.PerMVD[i].MVD, got.PerMVD[i].Loss, want.PerMVD[i].Loss)
		}
	}
	return nil
}
