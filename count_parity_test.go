package ajdloss

// Exact-parity harness for loss counting on snapshot groupings: on random
// relations and random acyclic schemas, every join size and spurious count
// the production path (join.CountGroupingsCols, behind core.ComputeLoss,
// ComputeLossTree, MVDLoss and Analyze) returns must equal, as an integer,
// the projection baseline — join.CountTree over join.Projections for trees,
// Relation.JoinCount over Relation.Project for MVDs — computed on an
// independent copy of the rows. KLFromEmpirical, which sums over group
// counts, must agree with a per-row evaluation of ln P^T to 1e-12·max(1, KL)
// and with a math/big evaluation to 1e-14·max(1, KL).

import (
	"errors"
	"math"
	"math/big"
	"sync"
	"testing"
	"testing/quick"

	"ajdloss/internal/core"
	"ajdloss/internal/infotheory"
	"ajdloss/internal/join"
	"ajdloss/internal/jointree"
	"ajdloss/internal/randrel"
	"ajdloss/internal/relation"
	"ajdloss/internal/schemagen"
)

// countInstance draws a random join tree (1–5 bags; empty separators occur
// whenever an attribute's subtree does not grow) and a random relation over
// its attributes.
func countInstance(t *testing.T, seed uint64) (*jointree.JoinTree, *relation.Relation) {
	t.Helper()
	rng := randrel.NewRand(seed)
	m := 1 + rng.IntN(5)
	nAttrs := m + rng.IntN(7-m)
	tree, err := schemagen.RandomJoinTree(rng, m, nAttrs, 0.8*rng.Float64())
	if err != nil {
		t.Fatal(err)
	}
	model := randrel.Model{Attrs: schemagen.AttrNames(nAttrs), Domains: make([]int, nAttrs)}
	for i := range model.Domains {
		model.Domains[i] = 2 + rng.IntN(3)
	}
	p, _ := model.DomainProduct()
	model.N = 1 + rng.IntN(int(min(p, 80)))
	r, err := model.Sample(rng)
	if err != nil {
		t.Fatal(err)
	}
	return tree, r
}

// baselineTreeCount is the projection baseline for a tree's join size,
// computed on a fresh copy of rel's rows.
func baselineTreeCount(t *testing.T, rel *relation.Relation, tree *jointree.JoinTree) (int64, error) {
	t.Helper()
	base := relation.FromRows(rel.Attrs(), rel.Rows())
	rels, err := join.Projections(base, tree.Schema())
	if err != nil {
		t.Fatal(err)
	}
	return join.CountTree(tree, rels)
}

// baselineMVDCount is |Π_{XY}(R) ⋈ Π_{XZ}(R)| by the hash join, on a fresh
// copy of rel's rows.
func baselineMVDCount(rel *relation.Relation, m jointree.MVD) int64 {
	base := relation.FromRows(rel.Attrs(), rel.Rows())
	left := base.MustProject(infotheory.Union(m.X, m.Y)...)
	right := base.MustProject(infotheory.Union(m.X, m.Z)...)
	return left.JoinCount(right)
}

// klReference evaluates D_KL(P‖P^T) with ln P^T computed per row: the row
// form the group-count form replaced, kept as its reference.
func klReference(t *testing.T, r *relation.Relation, rooted *jointree.Rooted) float64 {
	t.Helper()
	var bags, seps []*relation.Grouping
	for pos := range rooted.Order {
		g, err := r.Grouping(rooted.Bag(pos)...)
		if err != nil {
			t.Fatal(err)
		}
		bags = append(bags, g)
		if pos > 0 {
			if g, err = r.Grouping(rooted.Sep[pos]...); err != nil {
				t.Fatal(err)
			}
			seps = append(seps, g)
		}
	}
	n := float64(r.N())
	invN := 1.0 / n
	logInvN := math.Log(invN)
	var d float64
	for i := 0; i < r.N(); i++ {
		var lp float64
		for _, g := range bags {
			lp += math.Log(float64(g.Counts[g.IDs[i]]) / n)
		}
		for _, g := range seps {
			lp -= math.Log(float64(g.Counts[g.IDs[i]]) / n)
		}
		d += invN * (logInvN - lp)
	}
	if d < 0 && d > -1e-9 {
		d = 0
	}
	return d
}

// checkCountParity compares every production loss count on rel against the
// projection baseline; it reports the first mismatch.
func checkCountParity(t *testing.T, rel *relation.Relation, tree *jointree.JoinTree) bool {
	t.Helper()
	want, err := baselineTreeCount(t, rel, tree)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(rel.N())
	loss, err := core.ComputeLossTree(rel, tree)
	if err != nil {
		t.Fatal(err)
	}
	if loss.JoinSize != want || loss.Spurious != want-n {
		t.Logf("ComputeLossTree %s: join %d spurious %d, baseline join %d", tree, loss.JoinSize, loss.Spurious, want)
		return false
	}
	if loss, err = core.ComputeLoss(rel, tree.Schema()); err != nil {
		t.Fatal(err)
	}
	if loss.JoinSize != want {
		t.Logf("ComputeLoss %s: join %d, baseline %d", tree, loss.JoinSize, want)
		return false
	}
	attrs := rel.Attrs()
	half := len(attrs) / 2
	mvds := append(tree.EdgeMVDs(),
		jointree.MVD{Y: attrs[:half], Z: attrs[half:]}, // X = ∅: a cross product
		jointree.MVD{X: attrs[:1], Y: attrs, Z: attrs}, // Y = Z: the join is R itself
	)
	for _, m := range mvds {
		l, err := core.MVDLoss(rel, m)
		if err != nil {
			t.Fatal(err)
		}
		if w := baselineMVDCount(rel, m); l.JoinSize != w || l.Spurious != w-n {
			t.Logf("MVDLoss %s: join %d spurious %d, baseline join %d", m, l.JoinSize, l.Spurious, w)
			return false
		}
	}
	rep, err := core.Analyze(rel, tree.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Loss.JoinSize != want {
		t.Logf("Analyze %s: join %d, baseline %d", tree, rep.Loss.JoinSize, want)
		return false
	}
	for _, term := range rep.PerMVD {
		if w := baselineMVDCount(rel, term.MVD); term.Loss.JoinSize != w {
			t.Logf("Analyze %s: MVD %s join %d, baseline %d", tree, term.MVD, term.Loss.JoinSize, w)
			return false
		}
	}
	if err := rep.Verify(1e-9); err != nil {
		t.Logf("Analyze %s: %v", tree, err)
		return false
	}
	rooted := jointree.MustRoot(tree, 0)
	f, err := core.NewFactorization(rel, rooted)
	if err != nil {
		t.Fatal(err)
	}
	kl, err := f.KLFromEmpirical()
	if err != nil {
		t.Fatal(err)
	}
	if ref := klReference(t, rel, rooted); math.Abs(kl-ref) > 1e-12*math.Max(1, kl) {
		t.Logf("KLFromEmpirical %s: %.17g, per-row reference %.17g", tree, kl, ref)
		return false
	}
	return true
}

func TestQuickCountParity(t *testing.T) {
	property := func(seed uint64) bool {
		tree, r := countInstance(t, seed)
		// Never warmed: the first query builds the snapshot.
		cold := relation.FromRows(r.Attrs(), r.Rows())
		if !checkCountParity(t, cold, tree) {
			t.Logf("seed %d, never-warmed relation", seed)
			return false
		}
		// Warm: a memo already filled by unrelated entropy queries.
		for _, sub := range subsets(r.Attrs()[:min(3, r.Arity())]) {
			if _, err := infotheory.Entropy(r, sub...); err != nil {
				t.Fatal(err)
			}
		}
		if !checkCountParity(t, r, tree) {
			t.Logf("seed %d, warm relation", seed)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestCountParityPinnedView counts on a View while the relation it was
// pinned from is appended to: the counts must match the baseline over the
// pinned rows, whatever the appends did meanwhile.
func TestCountParityPinnedView(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		tree, r := countInstance(t, seed)
		if _, err := core.Analyze(r, tree.Schema()); err != nil {
			t.Fatal(err)
		}
		view := r.View()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < 20; b++ {
				batch := make([]relation.Tuple, 5)
				for i := range batch {
					batch[i] = make(relation.Tuple, r.Arity())
					for c := range batch[i] {
						batch[i][c] = relation.Value(10 + b*5 + i + c)
					}
				}
				if _, err := r.Append(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		ok := checkCountParity(t, view, tree)
		wg.Wait()
		if !ok {
			t.Fatalf("seed %d: pinned view", seed)
		}
	}
}

// TestCountEdgeCases covers a single-bag schema and a join whose size
// overflows int64, where both paths must return join.ErrOverflow.
func TestCountEdgeCases(t *testing.T) {
	_, r := countInstance(t, 3)
	single := jointree.MustSchema(r.Attrs())
	loss, err := core.ComputeLoss(r, single)
	if err != nil || loss.JoinSize != int64(r.N()) || loss.Spurious != 0 {
		t.Fatalf("single bag: %+v, %v; want join %d", loss, err, r.N())
	}

	// Ten disjoint singleton bags over domain 100: the join has 100¹⁰ tuples.
	attrs := schemagen.AttrNames(10)
	wide := relation.New(attrs...)
	for v := 1; v <= 100; v++ {
		row := make(relation.Tuple, len(attrs))
		for c := range row {
			row[c] = relation.Value(v)
		}
		wide.Insert(row)
	}
	bags := make([][]string, len(attrs))
	for i, a := range attrs {
		bags[i] = []string{a}
	}
	schema := jointree.MustSchema(bags...)
	if _, err := core.ComputeLoss(wide, schema); !errors.Is(err, join.ErrOverflow) {
		t.Fatalf("ComputeLoss on a 100^10 join: %v, want join.ErrOverflow", err)
	}
	tree, err := jointree.BuildJoinTree(schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := baselineTreeCount(t, wide, tree); !errors.Is(err, join.ErrOverflow) {
		t.Fatalf("CountTree on a 100^10 join: %v, want join.ErrOverflow", err)
	}
}

// bigPrec is the working precision of the math/big KL reference, in bits.
const bigPrec = 200

// bigLn returns ln x for an integer x ≥ 1 to bigPrec bits. x = m·2^e with m
// in [1, 2), so ln x = e·ln 2 + ln m, and ln y = 2·atanh(u) =
// 2·Σ_{k odd} u^k/k with u = (y−1)/(y+1) ≤ 1/3: each term shrinks ninefold.
func bigLn(x int) *big.Float {
	series := func(y *big.Float) *big.Float {
		one := new(big.Float).SetPrec(bigPrec).SetInt64(1)
		u := new(big.Float).SetPrec(bigPrec).Sub(y, one)
		u.Quo(u, new(big.Float).SetPrec(bigPrec).Add(y, one))
		u2 := new(big.Float).SetPrec(bigPrec).Mul(u, u)
		sum := new(big.Float).SetPrec(bigPrec)
		pow := new(big.Float).SetPrec(bigPrec).Set(u)
		for k := int64(1); pow.Sign() != 0 && pow.MantExp(nil) > -bigPrec-8; k += 2 {
			sum.Add(sum, new(big.Float).SetPrec(bigPrec).Quo(pow, new(big.Float).SetInt64(k)))
			pow.Mul(pow, u2)
		}
		return sum.Mul(sum, new(big.Float).SetInt64(2))
	}
	e := 0
	for x>>(e+1) > 0 {
		e++
	}
	m := new(big.Float).SetPrec(bigPrec).SetInt64(int64(x))
	m.SetMantExp(m, -e)
	ln2 := series(new(big.Float).SetPrec(bigPrec).SetInt64(2))
	return new(big.Float).SetPrec(bigPrec).Add(series(m), ln2.Mul(ln2, new(big.Float).SetInt64(int64(e))))
}

// klBig evaluates D_KL(P‖P^T) = (Σ_seps Σ_g c_g ln c_g − Σ_bags Σ_g c_g ln c_g)/n
// in math/big, on marginal counts from the string-keyed projection path.
// lns caches ln c across calls.
func klBig(t *testing.T, r *relation.Relation, rooted *jointree.Rooted, lns map[int]*big.Float) *big.Float {
	t.Helper()
	coef := make(map[int]int64) // Σ over groups of ±c, by count c
	add := func(attrs []string, sign int64) {
		counts, err := r.ProjectCounts(attrs...)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range counts {
			coef[c] += sign * int64(c)
		}
	}
	for pos := range rooted.Order {
		add(rooted.Bag(pos), -1)
		if pos > 0 {
			add(rooted.Sep[pos], 1)
		}
	}
	sum := new(big.Float).SetPrec(bigPrec)
	for c, k := range coef {
		if lns[c] == nil {
			lns[c] = bigLn(c)
		}
		term := new(big.Float).SetPrec(bigPrec).SetInt64(k)
		sum.Add(sum, term.Mul(term, lns[c]))
	}
	return sum.Quo(sum, new(big.Float).SetInt64(int64(r.N())))
}

// absErr returns |x − ref| as a float64.
func absErr(x float64, ref *big.Float) float64 {
	d := new(big.Float).SetPrec(bigPrec).SetFloat64(x)
	f, _ := d.Sub(d, ref).Abs(d).Float64()
	return f
}

// TestKLGroupCountsVsBig checks KLFromEmpirical against an exact math/big
// evaluation: within 1e-14·max(1, KL) on every case, and with a summed
// absolute error no larger than the per-row form's. A per-case "no worse
// than the row form" would not hold: either form wins some cases by
// last-bit rounding luck.
func TestKLGroupCountsVsBig(t *testing.T) {
	lns := make(map[int]*big.Float)
	var sumNew, sumRow, worstNew, worstRow float64
	for seed := uint64(1); seed <= 3000; seed++ {
		tree, r := countInstance(t, seed)
		rooted := jointree.MustRoot(tree, 0)
		f, err := core.NewFactorization(r, rooted)
		if err != nil {
			t.Fatal(err)
		}
		kl, err := f.KLFromEmpirical()
		if err != nil {
			t.Fatal(err)
		}
		ref := klBig(t, r, rooted, lns)
		refF, _ := ref.Float64()
		errNew := absErr(kl, ref)
		if errNew > 1e-14*math.Max(1, refF) {
			t.Fatalf("seed %d %s: KL %.17g, math/big %.17g (error %.3g)", seed, tree, kl, refF, errNew)
		}
		errRow := absErr(klReference(t, r, rooted), ref)
		worstNew = math.Max(worstNew, errNew/math.Max(1, refF))
		worstRow = math.Max(worstRow, errRow/math.Max(1, refF))
		sumNew += errNew
		sumRow += errRow
	}
	t.Logf("worst error/max(1, KL), summed absolute error: group-count form %.3g, %.3g; row form %.3g, %.3g",
		worstNew, sumNew, worstRow, sumRow)
	if sumNew > sumRow {
		t.Fatalf("summed absolute error %.3g exceeds the row form's %.3g", sumNew, sumRow)
	}
}

// TestKLDuplicateInserts builds relations from rows inserted twice: the
// relation keeps each distinct row once, so P stays uniform over its rows
// and the group-count KL must match the one over the distinct rows, the
// math/big reference and, through Analyze, J.
func TestKLDuplicateInserts(t *testing.T) {
	lns := make(map[int]*big.Float)
	for seed := uint64(1); seed <= 50; seed++ {
		tree, r := countInstance(t, seed)
		rows := r.Rows()
		dup := relation.New(r.Attrs()...)
		for i := range rows {
			dup.Insert(rows[i])
			dup.Insert(rows[len(rows)-1-i])
		}
		if dup.N() != r.N() {
			t.Fatalf("seed %d: %d rows after duplicate inserts, want %d", seed, dup.N(), r.N())
		}
		rooted := jointree.MustRoot(tree, 0)
		f, err := core.NewFactorization(dup, rooted)
		if err != nil {
			t.Fatal(err)
		}
		kl, err := f.KLFromEmpirical()
		if err != nil {
			t.Fatal(err)
		}
		ref := klBig(t, r, rooted, lns)
		refF, _ := ref.Float64()
		if e := absErr(kl, ref); e > 1e-14*math.Max(1, refF) {
			t.Fatalf("seed %d %s: KL %.17g, math/big over distinct rows %.17g", seed, tree, kl, refF)
		}
		rep, err := core.Analyze(dup, tree.Schema())
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(rep.KL-rep.J) > 1e-12*math.Max(1, rep.J) {
			t.Fatalf("seed %d %s: Analyze KL %.17g vs J %.17g", seed, tree, rep.KL, rep.J)
		}
	}
}
