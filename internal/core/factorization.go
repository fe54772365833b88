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
// The marginal counts of every bag and separator come from the columnar
// group-count engine: evaluating P^T on a tuple *of r* (the KL computation,
// Theorem 3.2) is pure integer indexing with no hashing. Evaluating P^T on
// arbitrary tuples (spurious join tuples, Dist) needs value-addressable
// lookups and lazily builds legacy string-keyed maps on first use.
type Factorization struct {
	r      *relation.Relation
	rooted *jointree.Rooted
	n      float64
	// bagGroups/sepGroups hold per-row group ids and per-group counts for
	// each bag and separator, shared with the memoized engine of one
	// snapshot of r.
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
	return newFactorization(r, snap, rooted, bags, seps)
}

// newFactorization is NewFactorization reading its marginals off snap, a
// snapshot of r, for the rooted tree's DFS-ordered bag and separator column
// sets (see rootedCols).
func newFactorization(r *relation.Relation, snap *engine.Snapshot, rooted *jointree.Rooted, bags, seps [][]int) (*Factorization, error) {
	if snap.N() == 0 {
		return nil, fmt.Errorf("core: factorization of an empty relation")
	}
	f := &Factorization{r: r, rooted: rooted, n: float64(snap.N())}
	for _, cols := range bags {
		f.bagGroups = append(f.bagGroups, snap.GroupingCols(cols))
	}
	for _, cols := range seps[1:] {
		f.sepGroups = append(f.sepGroups, snap.GroupingCols(cols))
	}
	return f, nil
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
// diagnostics path; KLFromEmpirical indexes group ids instead.
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
// verified in tests and exposed as an internal consistency check.
//
// ln P^T of a row of r is read by group-id indexing: every bag and separator
// projection of a row of r occurs in r, so the probability is positive, and
// log(count/n) is computed once per group (once per count value for the
// small counts most groups have). The rows are taken in blocks of klBlock:
// each block's ln P^T values accumulate in a stack array, adding the bag
// terms and subtracting the separator terms in tree order, two terms per
// pass, and the block is then folded into the sum in row order. Every row
// adds the same terms in the same order as a per-row evaluation, so the
// result is that evaluation's, bit for bit.
func (f *Factorization) KLFromEmpirical() (float64, error) {
	type term struct {
		ids  []int32
		logs []float64 // ±log(count/n) per group: + for bags, − for separators
	}
	terms := make([]term, 0, len(f.bagGroups)+len(f.sepGroups))
	var smallLogs [64]float64 // log(c/n) for the counts c below 64
	for c := 1; c < len(smallLogs); c++ {
		smallLogs[c] = math.Log(float64(c) / f.n)
	}
	add := func(g *relation.Grouping, sign float64) {
		logs := make([]float64, g.Groups())
		for id, c := range g.Counts {
			if c < len(smallLogs) {
				logs[id] = sign * smallLogs[c]
			} else {
				logs[id] = sign * math.Log(float64(c)/f.n)
			}
		}
		terms = append(terms, term{ids: g.IDs, logs: logs})
	}
	for _, g := range f.bagGroups {
		add(g, 1)
	}
	for _, g := range f.sepGroups {
		add(g, -1)
	}
	var d float64
	invN := 1.0 / f.n
	logInvN := math.Log(invN)
	var lp [klBlock]float64
	n := len(terms[0].ids)
	for lo := 0; lo < n; lo += klBlock {
		blk := lp[:min(klBlock, n-lo)]
		clear(blk)
		// Two terms per pass halve the loads and stores of blk.
		k := 0
		for ; k+1 < len(terms); k += 2 {
			a, b := terms[k], terms[k+1]
			bIDs := b.ids[lo : lo+len(blk)]
			for j, id := range a.ids[lo : lo+len(blk)] {
				blk[j] = blk[j] + a.logs[id] + b.logs[bIDs[j]]
			}
		}
		if k < len(terms) {
			t := terms[k]
			for j, id := range t.ids[lo : lo+len(blk)] {
				blk[j] += t.logs[id]
			}
		}
		for _, v := range blk {
			d += invN * (logInvN - v)
		}
	}
	if d < 0 && d > -1e-9 {
		d = 0
	}
	return d, nil
}

// klBlock is the number of rows KLFromEmpirical accumulates at a time: small
// enough that the block's ln P^T values stay in L1 while every term's ids
// stream past it.
const klBlock = 256

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
