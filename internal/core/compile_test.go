package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ajdloss/internal/engine"
	"ajdloss/internal/infotheory"
	"ajdloss/internal/join"
	"ajdloss/internal/jointree"
	"ajdloss/internal/randrel"
	"ajdloss/internal/relation"
	"ajdloss/internal/schemagen"
)

// This file pins the compiled evaluation (compile.go) to the name-by-name
// composition it replaced, kept below as the reference: every entropy read
// by attribute names through infotheory, every set built by
// infotheory.Union, every join counted by name. The two must agree bit for
// bit on every float but KL and exactly on every loss. KL sums over group
// counts, and the reference sums ln P^T row by row, so the two agree to
// 1e-12·max(1, KL).

// refWarmReportPlan enqueues every entropy the reference report reads into
// one engine plan and runs it.
func refWarmReportPlan(snap *engine.Snapshot, rooted *jointree.Rooted) error {
	p := snap.Plan()
	addCMI := func(a, b, c []string) error {
		for _, set := range [][]string{
			infotheory.Union(b, c), infotheory.Union(a, c), infotheory.Union(a, b, c), c,
		} {
			if err := p.AddEntropy(set...); err != nil {
				return err
			}
		}
		return nil
	}
	t := rooted.Tree
	for _, bag := range t.Bags {
		if err := p.AddEntropy(bag...); err != nil {
			return err
		}
	}
	for e := range t.Edges {
		if err := p.AddEntropy(t.Separator(e)...); err != nil {
			return err
		}
	}
	if err := p.AddEntropy(t.Attrs()...); err != nil {
		return err
	}
	for i := 1; i < len(rooted.Order); i++ {
		if err := addCMI(rooted.Prefix(i-1), rooted.Suffix(i), rooted.Sep[i]); err != nil {
			return err
		}
		if err := addCMI(rooted.Prefix(i-1), rooted.Bag(i), rooted.Sep[i]); err != nil {
			return err
		}
	}
	for _, m := range t.EdgeMVDs() {
		if err := addCMI(m.Y, m.Z, m.X); err != nil {
			return err
		}
	}
	p.Run(0)
	return nil
}

func refJMeasure(r infotheory.Source, t *jointree.JoinTree) (float64, error) {
	var sum float64
	for _, bag := range t.Bags {
		h, err := infotheory.Entropy(r, bag...)
		if err != nil {
			return 0, err
		}
		sum += h
	}
	for e := range t.Edges {
		h, err := infotheory.Entropy(r, t.Separator(e)...)
		if err != nil {
			return 0, err
		}
		sum -= h
	}
	hAll, err := infotheory.Entropy(r, t.Attrs()...)
	if err != nil {
		return 0, err
	}
	j := sum - hAll
	if j < 0 && j > -1e-9 {
		j = 0
	}
	return j, nil
}

func refSandwich(r infotheory.Source, rooted *jointree.Rooted) (*Sandwich, error) {
	s := &Sandwich{}
	m := len(rooted.Order)
	for i := 1; i < m; i++ {
		suffix, err := infotheory.ConditionalMutualInformation(r, rooted.Prefix(i-1), rooted.Suffix(i), rooted.Sep[i])
		if err != nil {
			return nil, err
		}
		s.SuffixTerms = append(s.SuffixTerms, suffix)
		s.Sum += suffix
		exact, err := infotheory.ConditionalMutualInformation(r, rooted.Prefix(i-1), rooted.Bag(i), rooted.Sep[i])
		if err != nil {
			return nil, err
		}
		s.ExactTerms = append(s.ExactTerms, exact)
	}
	for _, m := range rooted.Tree.EdgeMVDs() {
		term, err := infotheory.ConditionalMutualInformation(r, m.Y, m.Z, m.X)
		if err != nil {
			return nil, err
		}
		s.EdgeTerms = append(s.EdgeTerms, term)
		if term > s.Max {
			s.Max = term
		}
	}
	j, err := refJMeasure(r, rooted.Tree)
	if err != nil {
		return nil, err
	}
	s.J = j
	return s, nil
}

// refCount counts |⋈ᵢ R[bags[i]]| for bags and separators given by
// attribute names, resolving each one on its own.
func refCount(snap *engine.Snapshot, bags [][]string, parent []int, seps [][]string) (int64, error) {
	bagCols := make([][]int, len(bags))
	sepCols := make([][]int, len(seps))
	var err error
	for pos := range bags {
		if bagCols[pos], err = snap.Columns(bags[pos]); err != nil {
			return 0, err
		}
		if sepCols[pos], err = snap.Columns(seps[pos]); err != nil {
			return 0, err
		}
	}
	return join.CountGroupingsCols(snap, bagCols, parent, sepCols)
}

func refMVDLoss(snap *engine.Snapshot, m jointree.MVD) (Loss, error) {
	xy := infotheory.Union(m.X, m.Y)
	xz := infotheory.Union(m.X, m.Z)
	var shared []string
	for _, a := range xy {
		if slices.Contains(xz, a) {
			shared = append(shared, a)
		}
	}
	xyCols, err := snap.Columns(xy)
	if err != nil {
		return Loss{}, err
	}
	xzCols, err := snap.Columns(xz)
	if err != nil {
		return Loss{}, err
	}
	size, err := snap.PairJoinSizeCols(xyCols, xzCols, func() (int64, error) {
		return refCount(snap, [][]string{xy, xz}, []int{-1, 0}, [][]string{nil, shared})
	})
	if err != nil {
		return Loss{}, err
	}
	return lossFromJoinSize(snap.N(), size)
}

func refRootedLoss(snap *engine.Snapshot, rooted *jointree.Rooted) (Loss, error) {
	bags := make([][]string, len(rooted.Order))
	for pos := range bags {
		bags[pos] = rooted.Bag(pos)
	}
	size, err := refCount(snap, bags, rooted.Parent, rooted.Sep)
	if err != nil {
		return Loss{}, err
	}
	return lossFromJoinSize(snap.N(), size)
}

func refDecomposition(snap *engine.Snapshot, rooted *jointree.Rooted) (*Decomposition, error) {
	d := &Decomposition{}
	schemaLoss, err := refRootedLoss(snap, rooted)
	if err != nil {
		return nil, err
	}
	d.Schema = schemaLoss
	for _, m := range rooted.Tree.EdgeMVDs() {
		l, err := refMVDLoss(snap, m)
		if err != nil {
			return nil, err
		}
		cmi, err := infotheory.ConditionalMutualInformation(snap, m.Y, m.Z, m.X)
		if err != nil {
			return nil, err
		}
		term := MVDTerm{MVD: m, Loss: l, CMI: cmi, LogOnePlus: l.LogOnePlusRho()}
		d.Terms = append(d.Terms, term)
		d.SumLogLoss += term.LogOnePlus
		d.SumCMI += cmi
	}
	return d, nil
}

// refKL is the KL check in its per-row form, over groupings looked up by
// attribute names: ln P^T summed row by row rather than over group counts.
func refKL(snap *engine.Snapshot, rooted *jointree.Rooted) (float64, error) {
	var terms []*relation.Grouping
	var signs []float64
	for i := range rooted.Order {
		g, err := snap.Grouping(rooted.Bag(i)...)
		if err != nil {
			return 0, err
		}
		terms, signs = append(terms, g), append(signs, 1)
		if i > 0 {
			if g, err = snap.Grouping(rooted.Sep[i]...); err != nil {
				return 0, err
			}
			terms, signs = append(terms, g), append(signs, -1)
		}
	}
	n := float64(snap.N())
	var d float64
	for row := 0; row < snap.N(); row++ {
		var lp float64
		for k, g := range terms {
			lp += signs[k] * math.Log(float64(g.Counts[g.IDs[row]])/n)
		}
		d += (-math.Log(n) - lp) / n
	}
	if d < 0 && d > -1e-9 {
		d = 0
	}
	return d, nil
}

func refAnalyze(r *relation.Relation, s *jointree.Schema) (*Report, error) {
	if err := checkCoverage(r, s); err != nil {
		return nil, err
	}
	s = s.Reduced()
	t, err := jointree.BuildJoinTree(s)
	if err != nil {
		return nil, err
	}
	rooted, err := jointree.Root(t, 0)
	if err != nil {
		return nil, err
	}
	rep := &Report{Schema: s, Tree: t, N: r.N()}
	snap := r.Snapshot()
	if err := refWarmReportPlan(snap, rooted); err != nil {
		return nil, err
	}
	if rep.J, err = refJMeasure(snap, t); err != nil {
		return nil, err
	}
	if rep.KL, err = refKL(snap, rooted); err != nil {
		return nil, err
	}
	dec, err := refDecomposition(snap, rooted)
	if err != nil {
		return nil, err
	}
	rep.Loss = dec.Schema
	rep.PerMVD = dec.Terms
	rep.SumLogLoss = dec.SumLogLoss
	sandwich, err := refSandwich(snap, rooted)
	if err != nil {
		return nil, err
	}
	rep.MaxCMI = sandwich.Max
	rep.SumCMI = sandwich.Sum
	rep.RhoLower = RhoLowerBound(rep.J)
	rep.Lossless = rep.Loss.Spurious == 0
	return rep, nil
}

// sameBits reports whether two float slices are equal bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameReport(t *testing.T, label string, got, want *Report) {
	t.Helper()
	floats := func(r *Report) []float64 {
		return []float64{r.J, r.RhoLower, r.MaxCMI, r.SumCMI, r.SumLogLoss}
	}
	if !sameBits(floats(got), floats(want)) {
		t.Fatalf("%s: J, RhoLower, MaxCMI, SumCMI, SumLogLoss = %v, want %v", label, floats(got), floats(want))
	}
	if math.Abs(got.KL-want.KL) > 1e-12*math.Max(1, want.KL) {
		t.Fatalf("%s: KL %.17g, per-row reference %.17g", label, got.KL, want.KL)
	}
	if !reflect.DeepEqual(got.Loss, want.Loss) || !reflect.DeepEqual(got.PerMVD, want.PerMVD) {
		t.Fatalf("%s: Loss/PerMVD = %+v %+v, want %+v %+v", label, got.Loss, got.PerMVD, want.Loss, want.PerMVD)
	}
	if got.N != want.N || got.Lossless != want.Lossless || got.Schema.String() != want.Schema.String() || !reflect.DeepEqual(got.Tree, want.Tree) {
		t.Fatalf("%s: N/Lossless/Schema/Tree = %d %v %s %s, want %d %v %s %s", label,
			got.N, got.Lossless, got.Schema, got.Tree, want.N, want.Lossless, want.Schema, want.Tree)
	}
}

func sameSandwich(t *testing.T, label string, got, want *Sandwich) {
	t.Helper()
	if !sameBits(got.SuffixTerms, want.SuffixTerms) || !sameBits(got.ExactTerms, want.ExactTerms) ||
		!sameBits(got.EdgeTerms, want.EdgeTerms) || !sameBits([]float64{got.Max, got.Sum, got.J}, []float64{want.Max, want.Sum, want.J}) {
		t.Fatalf("%s: sandwich %+v, want %+v", label, got, want)
	}
	if (got.SuffixTerms == nil) != (want.SuffixTerms == nil) || (got.ExactTerms == nil) != (want.ExactTerms == nil) || (got.EdgeTerms == nil) != (want.EdgeTerms == nil) {
		t.Fatalf("%s: sandwich nil-ness %+v, want %+v", label, got, want)
	}
}

// parityCase is one (relation, schema) pair; twin is an identical relation
// with its own snapshot, so the reference shares no memo with the code
// under test.
type parityCase struct {
	label   string
	r, twin *relation.Relation
	schema  *jointree.Schema
	tree    *jointree.JoinTree // an unreduced tree of the schema, for the exported functions
}

// parityCases draws seeded random relations on 3–10 attributes with 1–5
// bag schemas, and varies each schema: as drawn (grow 0 makes every
// separator empty, so the schema is disconnected), with a redundant subset
// bag, with a duplicated bag, and with a bag naming an attribute twice.
func parityCases(t *testing.T, seeds int) []parityCase {
	t.Helper()
	var cases []parityCase
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		rng := randrel.NewRand(seed)
		nAttrs := 3 + rng.IntN(8)
		m := 1 + rng.IntN(min(5, nAttrs))
		grow := []float64{0, 0.3, 0.6}[rng.IntN(3)]
		tree, err := schemagen.RandomJoinTree(rng, m, nAttrs, grow)
		if err != nil {
			t.Fatal(err)
		}
		attrs := tree.Attrs()
		domains := make([]int, len(attrs))
		for i := range domains {
			domains[i] = 2 + rng.IntN(3)
		}
		model := randrel.Model{Attrs: attrs, Domains: domains, N: 5 + rng.IntN(200)}
		if p, overflow := model.DomainProduct(); !overflow && int64(model.N) > p {
			model.N = int(p)
		}
		r, err := model.Sample(randrel.NewRand(seed))
		if err != nil {
			t.Fatal(err)
		}
		twin, err := model.Sample(randrel.NewRand(seed))
		if err != nil {
			t.Fatal(err)
		}
		bags := tree.Bags
		k := rng.IntN(len(bags))
		repeat := slices.Clone(bags)
		repeat[k] = append(slices.Clone(bags[k]), bags[k][0])
		repeatTree, err := jointree.NewJoinTree(repeat, tree.Edges)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []struct {
			name string
			bags [][]string
			tree *jointree.JoinTree
		}{
			{"drawn", bags, tree},
			{"redundant", append(slices.Clone(bags), bags[k][:1+rng.IntN(len(bags[k]))]), tree},
			{"duplicate", append(slices.Clone(bags), bags[k]), tree},
			{"repeat", repeat, repeatTree},
		} {
			cases = append(cases, parityCase{
				label:  fmt.Sprintf("seed %d (%d attrs, %d bags, grow %g) %s", seed, nAttrs, m, grow, v.name),
				r:      r,
				twin:   twin,
				schema: jointree.MustSchema(v.bags...),
				tree:   v.tree,
			})
		}
	}
	return cases
}

// TestAnalyzeParity: Analyze and AnalyzeTree match the reference report bit
// for bit, and the exported JMeasure, ComputeSandwich and
// ComputeDecomposition match their references, on snapshots and (J and the
// sandwich) on relations.
func TestAnalyzeParity(t *testing.T) {
	cases := parityCases(t, 250)
	disconnected, single := 0, 0
	for _, tc := range cases {
		want, err := refAnalyze(tc.twin, tc.schema)
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.label, err)
		}
		got, err := Analyze(tc.r, tc.schema)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		sameReport(t, tc.label, got, want)
		viaTree, err := AnalyzeTree(tc.r, tc.schema, jointree.MustJoinTree(want.Tree.Bags, want.Tree.Edges))
		if err != nil {
			t.Fatalf("%s: AnalyzeTree: %v", tc.label, err)
		}
		sameReport(t, tc.label+" AnalyzeTree", viaTree, want)
		for e := range want.Tree.Edges {
			if len(want.Tree.Separator(e)) == 0 {
				disconnected++
				break
			}
		}
		if want.Tree.Len() == 1 {
			single++
		}

		rooted := jointree.MustRoot(tc.tree, 0)
		for _, src := range []struct {
			name      string
			got, want infotheory.Source
		}{
			{"snapshot", tc.r.Snapshot(), tc.twin.Snapshot()},
			{"relation", tc.r, tc.twin},
		} {
			label := tc.label + " " + src.name
			wantJ, err := refJMeasure(src.want, tc.tree)
			if err != nil {
				t.Fatal(err)
			}
			gotJ, err := JMeasure(src.got, tc.tree)
			if err != nil || math.Float64bits(gotJ) != math.Float64bits(wantJ) {
				t.Fatalf("%s: JMeasure = %v, %v; want %v", label, gotJ, err, wantJ)
			}
			wantS, err := refSandwich(src.want, rooted)
			if err != nil {
				t.Fatal(err)
			}
			gotS, err := ComputeSandwich(src.got, rooted)
			if err != nil {
				t.Fatalf("%s: ComputeSandwich: %v", label, err)
			}
			sameSandwich(t, label, gotS, wantS)
		}
		wantD, err := refDecomposition(tc.twin.Snapshot(), rooted)
		if err != nil {
			t.Fatal(err)
		}
		gotD, err := ComputeDecomposition(tc.r, rooted)
		if err != nil {
			t.Fatalf("%s: ComputeDecomposition: %v", tc.label, err)
		}
		if !reflect.DeepEqual(gotD, wantD) || !sameBits([]float64{gotD.SumLogLoss, gotD.SumCMI}, []float64{wantD.SumLogLoss, wantD.SumCMI}) {
			t.Fatalf("%s: decomposition %+v, want %+v", tc.label, gotD, wantD)
		}
	}
	if disconnected == 0 || single == 0 {
		t.Fatalf("cases cover %d disconnected and %d single-bag reduced schemas; want some of each", disconnected, single)
	}
}

// noSnapshot is a source whose method set hides the snapshot behind it.
type noSnapshot struct{ infotheory.Source }

// TestAnalyzeErrorsMatchReference: a schema that misses a relation
// attribute fails with the reference's error, which names the schema as the
// caller wrote it, redundant and duplicate bags included; a tree naming an
// attribute the relation lacks fails the same way as before; and a source
// without a snapshot is refused.
func TestAnalyzeErrorsMatchReference(t *testing.T) {
	r := relation.New("A", "B", "C")
	r.Insert(relation.Tuple{1, 2, 3})
	for _, s := range []*jointree.Schema{
		jointree.MustSchema([]string{"A", "B"}),
		jointree.MustSchema([]string{"A", "B"}, []string{"A"}),
		jointree.MustSchema([]string{"A", "B"}, []string{"B", "A"}),
	} {
		_, wantErr := refAnalyze(r, s)
		if wantErr == nil {
			t.Fatalf("reference analysis of %s succeeded", s)
		}
		if _, err := Analyze(r, s); err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("Analyze(%s): %v, want %v", s, err, wantErr)
		}
		tree, err := jointree.BuildJoinTree(s.Reduced())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := AnalyzeTree(r, s, tree); err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("AnalyzeTree(%s): %v, want %v", s, err, wantErr)
		}
	}
	tree := jointree.MustJoinTree([][]string{{"A", "B"}, {"B", "Z"}}, [][2]int{{0, 1}})
	_, wantErr := refJMeasure(r, tree)
	if _, err := JMeasure(r, tree); err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("JMeasure with an unknown attribute: %v, want %v", err, wantErr)
	}
	valid := jointree.MustJoinTree([][]string{{"A", "B"}, {"B", "C"}}, [][2]int{{0, 1}})
	if _, err := JMeasure(noSnapshot{r}, valid); err == nil {
		t.Fatal("JMeasure of a source without a snapshot succeeded")
	}
	if _, err := ComputeSandwich(noSnapshot{r}, jointree.MustRoot(valid, 0)); err == nil {
		t.Fatal("ComputeSandwich of a source without a snapshot succeeded")
	}
}

// TestAnalyzeConcurrent: concurrent Analyze calls over different schemas on
// one snapshot (a frozen view) each match the reference. Run under -race,
// it checks that compiled forms share nothing but the snapshot's memo.
func TestAnalyzeConcurrent(t *testing.T) {
	cases := parityCases(t, 6)
	view := cases[0].r.View()
	var want []*Report
	var schemas []*jointree.Schema
	for _, tc := range cases[:4] {
		rep, err := refAnalyze(cases[0].twin, tc.schema)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rep)
		schemas = append(schemas, tc.schema)
	}
	const workers = 8
	got := make([][]*Report, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range schemas {
				s := schemas[(k+w)%len(schemas)]
				rep, err := Analyze(view, s)
				if err != nil {
					errs[w] = err
					return
				}
				got[w] = append(got[w], rep)
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		for k, rep := range got[w] {
			sameReport(t, fmt.Sprintf("worker %d schema %d", w, (k+w)%len(schemas)), rep, want[(k+w)%len(schemas)])
		}
	}
}
