package core

import (
	"encoding/binary"
	"fmt"

	"ajdloss/internal/engine"
	"ajdloss/internal/infotheory"
	"ajdloss/internal/jointree"
)

// compiled is a join tree resolved once into the sorted column sets that J
// (Eq. 7), the Theorem 2.2 sandwich and the Proposition 5.1 decomposition
// read, together with one entropy table over those sets. Its contract:
//
//   - Every set is derived once. Bags are resolved to sorted column
//     positions; separators are sorted intersections of two bags; the DFS
//     prefixes Ω_{1:i} and suffixes Ω_{i:m} are one incremental sorted merge
//     each; EdgeMVDs runs once and its sides are resolved once. Each CMI term
//     I(A;B|C) holds its four sets BC, AC, ABC and C.
//   - Equal sets share one slot of the table, and each slot is read from the
//     snapshot at most once, by column set.
//   - J, the sandwich and the decomposition combine table values in the
//     summation order of their definitions (bags, then separators, then
//     χ(T) for J; H(BC) + H(AC) − H(ABC) − H(C) for a CMI), and an entropy
//     is a function of its attribute set alone, so every figure is
//     bit-identical to evaluating the same formulas name by name.
//   - H(∅) reads as 0. Disconnected schemas have empty separators, which are
//     read from the snapshot like any other set; the snapshot defines
//     H(∅) = 0 exactly, as infotheory.Entropy does.
//
// A compiled value is built and used by one goroutine.
type compiled struct {
	snap *engine.Snapshot

	sets  [][]int        // distinct column sets: the entropy table's keys
	index map[string]int // uvarint encoding of a set → its slot
	key   []byte
	h     []float64 // h[i] = H(sets[i]) once known[i]
	known []bool

	bagCols [][]int // each tree bag's column set, in t.Bags order
	bags    []int   // slot of each tree bag
	seps    []int   // slot of each edge's separator, in t.Edges order
	all     int     // slot of χ(T)

	// Filled by root: the rooted tree's bags and separators Δᵢ in DFS order
	// (rseps[0] = nil), for the join counts and the factorization, and the
	// edge MVDs (in edge order) with their CMI terms I(Y;Z|X).
	parent       []int
	rbags, rseps [][]int
	mvds         []jointree.MVD
	edge         []cmiSlots

	// Filled by prefixTerms: I(Ω_{1:i−1};Ω_{i:m}|Δᵢ) and, when asked for,
	// I(Ω_{1:i−1};Ωᵢ|Δᵢ), for i = 2..m.
	suffix, exact []cmiSlots
}

// cmiSlots are the table slots of I(A;B|C)'s four entropies.
type cmiSlots struct{ bc, ac, abc, c int }

// compile resolves t's bags, separators and χ(T) against the snapshot
// behind src; a source without one is an error.
func compile(src infotheory.Source, t *jointree.JoinTree) (*compiled, error) {
	snap := snapshotOf(src)
	if snap == nil {
		return nil, fmt.Errorf("core: source %T has no snapshot", src)
	}
	c := &compiled{snap: snap, index: make(map[string]int)}
	var all []int
	for _, bag := range t.Bags {
		cols, err := snap.Columns(bag)
		if err != nil {
			return nil, err
		}
		c.bagCols = append(c.bagCols, cols)
		c.bags = append(c.bags, c.slot(cols))
		all = mergeCols(all, cols)
	}
	for _, e := range t.Edges {
		c.seps = append(c.seps, c.slot(intersectCols(c.bagCols[e[0]], c.bagCols[e[1]])))
	}
	c.all = c.slot(all)
	return c, nil
}

// snapshotOf returns the snapshot behind src (a snapshot itself, or a
// relation or multiset holding one), or nil.
func snapshotOf(src infotheory.Source) *engine.Snapshot {
	switch s := src.(type) {
	case *engine.Snapshot:
		return s
	case interface{ Snapshot() *engine.Snapshot }:
		return s.Snapshot()
	}
	return nil
}

// root adds the rooted form of the compiled tree (rooted.Tree must be it):
// DFS bags and separators, and the edge MVDs with their CMI terms.
func (c *compiled) root(rooted *jointree.Rooted) error {
	c.parent = rooted.Parent
	c.rbags = make([][]int, len(rooted.Order))
	for i, b := range rooted.Order {
		c.rbags[i] = c.bagCols[b]
	}
	c.rseps = separators(c.rbags, rooted.Parent)
	c.mvds = rooted.Tree.EdgeMVDs()
	for e, m := range c.mvds {
		y, err := c.snap.Columns(m.Y)
		if err != nil {
			return err
		}
		z, err := c.snap.Columns(m.Z)
		if err != nil {
			return err
		}
		// m.X is the edge's separator, already a slot.
		c.edge = append(c.edge, c.cmiSlots(y, z, c.sets[c.seps[e]]))
	}
	return nil
}

// prefixTerms adds the sandwich's prefix/suffix terms, and the exact
// telescoping terms when exact is set, to a rooted compilation.
func (c *compiled) prefixTerms(exact bool) {
	m := len(c.rbags)
	prefix := make([][]int, m)
	suffix := make([][]int, m)
	prefix[0], suffix[m-1] = c.rbags[0], c.rbags[m-1]
	for i := 1; i < m; i++ {
		prefix[i] = mergeCols(prefix[i-1], c.rbags[i])
	}
	for i := m - 2; i >= 0; i-- {
		suffix[i] = mergeCols(c.rbags[i], suffix[i+1])
	}
	for i := 1; i < m; i++ {
		c.suffix = append(c.suffix, c.cmiSlots(prefix[i-1], suffix[i], c.rseps[i]))
		if exact {
			c.exact = append(c.exact, c.cmiSlots(prefix[i-1], c.rbags[i], c.rseps[i]))
		}
	}
}

// separators returns Δᵢ = bags[parent[i]] ∩ bags[i] for DFS-ordered column
// sets, with Δ₁ = nil for the root.
func separators(bags [][]int, parent []int) [][]int {
	seps := make([][]int, len(bags))
	for i := 1; i < len(bags); i++ {
		seps[i] = intersectCols(bags[parent[i]], bags[i])
	}
	return seps
}

// cmiSlots returns the slots of I(A;B|C) = H(BC) + H(AC) − H(ABC) − H(C).
func (c *compiled) cmiSlots(a, b, cond []int) cmiSlots {
	ac := mergeCols(a, cond)
	return cmiSlots{bc: c.slot(mergeCols(b, cond)), ac: c.slot(ac), abc: c.slot(mergeCols(ac, b)), c: c.slot(cond)}
}

// slot returns the table slot of a sorted column set, adding it if new.
func (c *compiled) slot(set []int) int {
	c.key = c.key[:0]
	for _, p := range set {
		c.key = binary.AppendUvarint(c.key, uint64(p))
	}
	if i, ok := c.index[string(c.key)]; ok {
		return i
	}
	i := len(c.sets)
	c.index[string(c.key)] = i
	c.sets = append(c.sets, set)
	return i
}

// warm computes every table entropy through one engine plan, which shares
// refinements between overlapping sets and runs independent ones on the
// worker pool; the lookups that follow are memo hits.
func (c *compiled) warm() {
	p := c.snap.Plan()
	for _, set := range c.sets {
		p.AddEntropyCols(set)
	}
	p.Run(0)
}

// entropy returns H of slot i, reading it from the snapshot the first time.
func (c *compiled) entropy(i int) float64 {
	if c.h == nil {
		c.h = make([]float64, len(c.sets))
		c.known = make([]bool, len(c.sets))
	}
	if c.known[i] {
		return c.h[i]
	}
	h := c.snap.GroupEntropyCols(c.sets[i])
	c.h[i], c.known[i] = h, true
	return h
}

// cmi evaluates I(A;B|C) from the table, in the order of
// infotheory.ConditionalMutualInformation, clamping the same residue.
func (c *compiled) cmi(s cmiSlots) float64 {
	v := c.entropy(s.bc) + c.entropy(s.ac) - c.entropy(s.abc) - c.entropy(s.c)
	if v < 0 && v > -1e-9 {
		v = 0
	}
	return v
}

// mergeCols returns the sorted union of two sorted column sets; when one
// contains the other it returns that one without allocating.
func mergeCols(a, b []int) []int {
	if subsetCols(b, a) {
		return a
	}
	if subsetCols(a, b) {
		return b
	}
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// intersectCols returns the sorted intersection of two sorted column sets.
func intersectCols(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// subsetCols reports whether sorted a ⊆ sorted b.
func subsetCols(a, b []int) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}
