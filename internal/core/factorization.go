package core

import (
	"fmt"
	"math"
	"sync"

	"ajdloss/internal/engine"
	"ajdloss/internal/infotheory"
	"ajdloss/internal/join"
	"ajdloss/internal/jointree"
	"ajdloss/internal/relation"
)

// Factorization evaluates the join-tree factorization P^T (Eq. 10) of the
// empirical distribution of a relation:
//
//	P^T(x) = Π_i P[Ωᵢ](x[Ωᵢ]) / Π_i P[Δᵢ](x[Δᵢ]).
//
// It is built only from a *relation.Relation, whose snapshot holds each
// distinct row once, so P is uniform over the n rows of r (unit row
// weights). The KL computation (Theorem 3.2) relies on that: it reads only
// the group counts of every bag and separator, from the columnar group-count
// engine, and never evaluates P^T row by row. Evaluating P^T on arbitrary
// tuples (spurious join tuples, Dist) needs value-addressable lookups and
// lazily builds legacy string-keyed maps on first use.
type Factorization struct {
	r      *relation.Relation
	rooted *jointree.Rooted
	n      float64
	// bagGroups/sepGroups hold the groupings of each bag and non-root
	// separator, shared with the memoized engine of one snapshot of r.
	bagGroups []*relation.Grouping
	sepGroups []*relation.Grouping

	// The lazy lookup: string-keyed marginal maps, and the column positions
	// in r of each bag and separator in its own attribute order.
	lookupOnce sync.Once
	bagCols    [][]int
	sepCols    [][]int
	bagLookup  []map[string]int
	sepLookup  []map[string]int
	lookupErr  error
}

// NewFactorization builds the P^T evaluator for the empirical distribution
// of r and the rooted join tree.
func NewFactorization(r *relation.Relation, rooted *jointree.Rooted) (*Factorization, error) {
	snap := r.Snapshot()
	bags, seps, err := rootedCols(snap, rooted)
	if err != nil {
		return nil, err
	}
	if snap.N() == 0 {
		return nil, fmt.Errorf("core: factorization of an empty relation")
	}
	return &Factorization{r: r, rooted: rooted, n: float64(snap.N()),
		bagGroups: groupings(snap, bags), sepGroups: groupings(snap, seps[1:])}, nil
}

// groupings returns snap's grouping of each column set.
func groupings(snap *engine.Snapshot, sets [][]int) []*relation.Grouping {
	gs := make([]*relation.Grouping, len(sets))
	for i, cols := range sets {
		gs[i] = snap.GroupingCols(cols)
	}
	return gs
}

// lookups builds the legacy string-keyed marginal maps used to evaluate P^T
// on tuples outside r. Built once, only when such a tuple is evaluated.
func (f *Factorization) lookups() ([]map[string]int, []map[string]int, error) {
	f.lookupOnce.Do(func() {
		m := len(f.rooted.Order)
		for i := 0; i < m; i++ {
			bag := f.rooted.Bag(i)
			counts, err := f.r.ProjectCounts(bag...)
			if err != nil {
				f.lookupErr = err
				return
			}
			f.bagLookup = append(f.bagLookup, counts)
			f.bagCols = append(f.bagCols, f.r.MustColumns(bag))
		}
		for i := 1; i < m; i++ {
			sep := f.rooted.Sep[i]
			counts, err := f.r.ProjectCounts(sep...)
			if err != nil {
				f.lookupErr = err
				return
			}
			f.sepLookup = append(f.sepLookup, counts)
			f.sepCols = append(f.sepCols, f.r.MustColumns(sep))
		}
	})
	return f.bagLookup, f.sepLookup, f.lookupErr
}

func project(t relation.Tuple, cols []int) string {
	buf := make(relation.Tuple, len(cols))
	for i, c := range cols {
		buf[i] = t[c]
	}
	return relation.RowKey(buf)
}

// Prob returns P^T(t) for a tuple t over r's full schema. Tuples whose bag
// projections never occur in r get probability 0.
func (f *Factorization) Prob(t relation.Tuple) float64 {
	logp, ok := f.LogProb(t)
	if !ok {
		return 0
	}
	return math.Exp(logp)
}

// LogProb returns ln P^T(t) and whether the probability is positive. t is an
// arbitrary tuple (not necessarily in r), so this is the string-keyed
// diagnostics path; KLFromEmpirical reads group counts instead.
func (f *Factorization) LogProb(t relation.Tuple) (float64, bool) {
	bagLookup, sepLookup, err := f.lookups()
	if err != nil {
		// Columns were validated at construction time; an error here would be
		// a schema mutation mid-flight, which the API forbids.
		panic(err)
	}
	var lp float64
	for i, cols := range f.bagCols {
		c := bagLookup[i][project(t, cols)]
		if c == 0 {
			return 0, false
		}
		lp += math.Log(float64(c) / f.n)
	}
	for i, cols := range f.sepCols {
		c := sepLookup[i][project(t, cols)]
		if c == 0 {
			// Unreachable if all bag counts were positive (separator ⊆ bag),
			// kept as a guard for malformed trees.
			return 0, false
		}
		lp -= math.Log(float64(c) / f.n)
	}
	return lp, true
}

// KLFromEmpirical returns D_KL(P ‖ P^T) where P is the empirical
// distribution of r. By Theorem 3.2 this equals J(T); the equality is
// verified in tests and exposed as an internal consistency check. It sums
// over the bag and separator group counts (see klCounts), which needs P
// uniform over r's rows: true of every Factorization, since r is a set.
func (f *Factorization) KLFromEmpirical() (float64, error) {
	return klCounts(int(f.n), f.bagGroups, f.sepGroups), nil
}

// klCounts returns D_KL(P ‖ P^T) of the join tree whose bags and
// non-root separators have the given groupings over n rows:
//
//	D_KL(P ‖ P^T) = (Σ_seps Σ_g c_g ln c_g − Σ_bags Σ_g c_g ln c_g) / n.
//
// The identity needs P uniform over the n rows, i.e. unit row weights: a
// Relation is a set, so its snapshot holds each distinct row once. A row t
// of r lies in group g of a grouping with probability c_g/n, and summing
// ln P^T(t) over the rows collects c_g copies of each group's term, so the
// sum costs O(groups), not O(rows × bags). The terms are added with
// Neumaier's compensated summation. KL never reads the memoized entropies
// that J is computed from, so it stays an independent check of J.
func klCounts(n int, bags, seps []*relation.Grouping) float64 {
	var sum, comp float64
	add := func(x float64) {
		t := sum + x
		if math.Abs(sum) >= math.Abs(x) {
			comp += (sum - t) + x
		} else {
			comp += (x - t) + sum
		}
		sum = t
	}
	for _, g := range seps {
		for _, c := range g.Counts {
			add(cLogC(c))
		}
	}
	for _, g := range bags {
		for _, c := range g.Counts {
			add(-cLogC(c))
		}
	}
	d := (sum + comp) / float64(n)
	// Rounding can leave the KL of a lossless tree a hair below 0.
	if d < 0 && d > -1e-9 {
		d = 0
	}
	return d
}

// cLogCTable holds c·ln c for the counts c below its length, which most
// groups have.
var cLogCTable = func() (t [256]float64) {
	for c := 2; c < len(t); c++ {
		t[c] = float64(c) * math.Log(float64(c))
	}
	return t
}()

func cLogC(c int) float64 {
	if c < len(cLogCTable) {
		return cLogCTable[c]
	}
	return float64(c) * math.Log(float64(c))
}

// Dist materializes the full P^T distribution over the support of the
// acyclic join ⋈ᵢ R[Ωᵢ] (the support of P^T), keyed by encoded rows in the
// attribute order of the join result, which is also returned. Intended for
// tests and small instances: the join can be much larger than R.
func (f *Factorization) Dist() (infotheory.Dist, *relation.Relation, error) {
	rels := make([]*relation.Relation, f.rooted.Tree.Len())
	var err error
	for i, bag := range f.rooted.Tree.Bags {
		rels[i], err = f.r.Project(bag...)
		if err != nil {
			return nil, nil, err
		}
	}
	joined, err := join.MaterializeTree(f.rooted.Tree, rels)
	if err != nil {
		return nil, nil, err
	}
	cols := joined.MustColumns(f.r.Attrs())
	d := make(infotheory.Dist, joined.N())
	var total float64
	for _, t := range joined.Rows() {
		// Reorder the join tuple into r's attribute order for evaluation.
		buf := make(relation.Tuple, len(cols))
		for i, c := range cols {
			buf[i] = t[c]
		}
		p := f.Prob(buf)
		d[relation.RowKey(buf)] = p
		total += p
	}
	if math.Abs(total-1) > 1e-6 {
		return nil, nil, fmt.Errorf("core: P^T sums to %.9f over the join support, want 1", total)
	}
	return d, joined, nil
}

// ModelsTree reports whether the empirical distribution of r models the join
// tree (Definition 2.2): the factorization terms I(Ω_{1:i−1};Ωᵢ|Δᵢ) vanish
// for every i ∈ [2,m] within tol. These terms telescope to J(T), so modeling
// is equivalent to J(T) = 0 and hence (Proposition 3.1) to P = P^T.
func ModelsTree(r infotheory.Source, rooted *jointree.Rooted, tol float64) (bool, error) {
	for i := 1; i < len(rooted.Order); i++ {
		mi, err := infotheory.ConditionalMutualInformation(r, rooted.Prefix(i-1), rooted.Bag(i), rooted.Sep[i])
		if err != nil {
			return false, err
		}
		if mi > tol {
			return false, nil
		}
	}
	return true, nil
}
