// Package join implements the acyclic join machinery: projecting a relation
// onto a schema's bags, materializing the acyclic join ⋈ᵢ R[Ωᵢ] in
// join-tree order, the Yannakakis full reducer, and — crucially for the
// paper's experiments — counting |⋈ᵢ R[Ωᵢ]| by junction-tree message
// passing without materializing the join (the join of an acyclic schema can
// be exponentially larger than its inputs; Figure 1 needs joins of size 10⁶
// whose inputs have 10⁵ rows, and the count is all the loss measure needs).
//
// Two counters share the message-passing scheme. CountGroupingsCols counts
// the join of one relation's own projections straight off its snapshot
// groupings; every loss in core goes through it. CountTree counts the join of independently sourced bag
// relations (normalization parts, sampled bags), aligning each edge's
// separator values across the two relations.
package join

import (
	"fmt"
	"math"

	"ajdloss/internal/engine"
	"ajdloss/internal/jointree"
	"ajdloss/internal/relation"
)

// Projections returns R[Ω₁],…,R[Ω_m] for the bags of the schema.
//
// When r's snapshot engine is warm, the bag groupings are first scheduled
// through one engine plan — parents-first in the subset lattice, on a worker
// pool — so overlapping bags share their refinement prefixes (and reuse
// whatever the entropy measures already memoized); relation.Project then
// reads each bag's distinct rows straight off its grouping. Cold relations
// skip the warm-up and take the plain row-scan path inside Project.
func Projections(r *relation.Relation, s *jointree.Schema) ([]*relation.Relation, error) {
	if snap, ok := r.SnapshotIfWarm(); ok {
		p := snap.Plan()
		for _, bag := range s.Bags() {
			if err := p.AddGrouping(bag...); err != nil {
				return nil, fmt.Errorf("join: planning bag projections: %w", err)
			}
		}
		p.Run(0)
	}
	out := make([]*relation.Relation, s.Len())
	for i, bag := range s.Bags() {
		p, err := r.Project(bag...)
		if err != nil {
			return nil, fmt.Errorf("join: projecting bag %d: %w", i, err)
		}
		out[i] = p
	}
	return out, nil
}

// MaterializeTree computes ⋈ᵢ rels[i] where rels[i] is the relation placed
// on bag i of the join tree. Joining in rooted DFS order guarantees each
// intermediate shares its separator with the accumulated prefix, so no
// unnecessary cross products arise (cross products still occur where the
// tree has empty separators, as they must).
func MaterializeTree(t *jointree.JoinTree, rels []*relation.Relation) (*relation.Relation, error) {
	if len(rels) != t.Len() {
		return nil, fmt.Errorf("join: %d relations for %d bags", len(rels), t.Len())
	}
	rooted, err := jointree.Root(t, 0)
	if err != nil {
		return nil, err
	}
	acc := rels[rooted.Order[0]]
	for i := 1; i < len(rooted.Order); i++ {
		acc = acc.NaturalJoin(rels[rooted.Order[i]])
	}
	return acc, nil
}

// AcyclicJoin projects r onto the schema's bags and materializes the acyclic
// join using a GYO-constructed join tree.
func AcyclicJoin(r *relation.Relation, s *jointree.Schema) (*relation.Relation, error) {
	t, err := jointree.BuildJoinTree(s)
	if err != nil {
		return nil, err
	}
	rels, err := Projections(r, s)
	if err != nil {
		return nil, err
	}
	return MaterializeTree(t, rels)
}

// ErrOverflow is returned when a join cardinality exceeds int64.
var ErrOverflow = fmt.Errorf("join: cardinality overflows int64")

func mulCheck(a, b int64) (int64, error) {
	if a == 0 || b == 0 {
		return 0, nil
	}
	c := a * b
	if c/b != a || c < 0 {
		return 0, ErrOverflow
	}
	return c, nil
}

func addCheck(a, b int64) (int64, error) {
	c := a + b
	if c < 0 {
		return 0, ErrOverflow
	}
	return c, nil
}

// treePlan precomputes, for a rooted join tree, the child lists and the
// per-edge group alignments between each node's relation and its parent's
// relation on the separator attributes. All message passing then runs over
// dense integer group-IDs — no string keys.
type treePlan struct {
	rooted   *jointree.Rooted
	rels     []*relation.Relation // by DFS position
	children [][]int              // children[pos]: DFS child positions
	// For pos ≥ 1, edge pos→parent: childIDs[pos][i] is the aligned
	// separator group of row i of the relation at pos; parentIDs[pos][i] the
	// aligned group of row i of the parent's relation; groups[pos] the size
	// of the shared id space.
	childIDs  [][]int32
	parentIDs [][]int32
	groups    []int
}

func newTreePlan(t *jointree.JoinTree, rels []*relation.Relation) (*treePlan, error) {
	if len(rels) != t.Len() {
		return nil, fmt.Errorf("join: %d relations for %d bags", len(rels), t.Len())
	}
	rooted, err := jointree.Root(t, 0)
	if err != nil {
		return nil, err
	}
	m := len(rooted.Order)
	p := &treePlan{
		rooted:    rooted,
		rels:      make([]*relation.Relation, m),
		children:  make([][]int, m),
		childIDs:  make([][]int32, m),
		parentIDs: make([][]int32, m),
		groups:    make([]int, m),
	}
	for pos := 0; pos < m; pos++ {
		p.rels[pos] = rels[rooted.Order[pos]]
	}
	for i := 1; i < m; i++ {
		par := rooted.Parent[i]
		p.children[par] = append(p.children[par], i)
		sep := rooted.Sep[i]
		parentIDs, childIDs, groups, err := relation.AlignGroups(p.rels[par], sep, p.rels[i], sep)
		if err != nil {
			return nil, err
		}
		p.parentIDs[i] = parentIDs
		p.childIDs[i] = childIDs
		p.groups[i] = groups
	}
	return p, nil
}

// CountTree returns |⋈ᵢ rels[i]| over the join tree without materializing
// the join, by bottom-up message passing: the message from a node to its
// parent maps each aligned separator group to the number of join extensions
// in the node's subtree consistent with that separator value.
func CountTree(t *jointree.JoinTree, rels []*relation.Relation) (int64, error) {
	plan, err := newTreePlan(t, rels)
	if err != nil {
		return 0, err
	}
	m := len(plan.rooted.Order)
	// messages[pos]: extension count per aligned separator group of edge pos.
	messages := make([][]int64, m)

	// aggregate computes the subtree weight of every tuple at pos and either
	// sums weights into the edge message (pos ≥ 1) or returns the total.
	aggregate := func(pos int) (int64, error) {
		rel := plan.rels[pos]
		var out []int64
		if pos > 0 {
			out = make([]int64, plan.groups[pos])
		}
		var total int64
		for i := 0; i < rel.N(); i++ {
			w := int64(1)
			ok := true
			for _, c := range plan.children[pos] {
				cw := messages[c][plan.parentIDs[c][i]]
				if cw == 0 {
					ok = false
					break
				}
				var err error
				if w, err = mulCheck(w, cw); err != nil {
					return 0, err
				}
			}
			if !ok {
				continue
			}
			if pos > 0 {
				g := plan.childIDs[pos][i]
				s, err := addCheck(out[g], w)
				if err != nil {
					return 0, err
				}
				out[g] = s
			} else {
				var err error
				if total, err = addCheck(total, w); err != nil {
					return 0, err
				}
			}
		}
		messages[pos] = out
		return total, nil
	}

	// Process in reverse DFS order (leaves first).
	for pos := m - 1; pos >= 1; pos-- {
		if _, err := aggregate(pos); err != nil {
			return 0, err
		}
	}
	return aggregate(0)
}

// CountGroupingsCols returns |⋈ᵢ R[bags[i]]|, where R is the relation snap
// holds and every bag and separator is a sorted column set of snap (see
// engine.Snapshot.Columns). The bags come in rooted DFS order:
// parent[0] = -1, parent[i] < i for i ≥ 1, and seps[i] is the column set
// bag i shares with its parent.
//
// Each group of a bag's grouping is one distinct tuple of R[bag], and the
// group's first row (Grouping.First) represents it. Read at that row, an
// edge's separator grouping names the tuple's separator value in the same
// snapshot, so messages are int64 slices over dense separator group ids: no
// projected relation, no row key and no cross-relation alignment is built,
// and the count costs O(groups) per bag, not O(rows). Projections of one
// relation are globally consistent (Beeri et al. 1983), so no reduction pass
// is needed. Groupings missing from the snapshot's memo are computed on
// demand. Independently sourced bag relations go through CountTree instead.
func CountGroupingsCols(snap *engine.Snapshot, bags [][]int, parent []int, seps [][]int) (int64, error) {
	m := len(bags)
	if m == 0 || len(parent) != m || len(seps) != m || parent[0] != -1 {
		return 0, fmt.Errorf("join: malformed rooted tree (%d bags, %d parents, %d separators)", m, len(parent), len(seps))
	}
	bagG := make([]*engine.Grouping, m)
	sepG := make([]*engine.Grouping, m)
	msgs := make([][]int64, m) // msgs[pos]: edge pos→parent's message, by separator group
	kids := make([][]int, m)
	for pos := range bags {
		bagG[pos] = snap.GroupingCols(bags[pos])
		if pos == 0 {
			continue
		}
		if parent[pos] < 0 || parent[pos] >= pos {
			return 0, fmt.Errorf("join: bag %d has parent %d, want one in [0,%d)", pos, parent[pos], pos)
		}
		sepG[pos] = snap.GroupingCols(seps[pos])
		msgs[pos] = make([]int64, sepG[pos].Groups())
		kids[parent[pos]] = append(kids[parent[pos]], pos)
	}

	var total int64
	for pos := m - 1; pos >= 0; pos-- {
		for _, i := range bagG[pos].First {
			w := int64(1)
			var err error
			for _, c := range kids[pos] {
				if w, err = mulCheck(w, msgs[c][sepG[c].IDs[i]]); err != nil {
					return 0, err
				}
			}
			if pos == 0 {
				total, err = addCheck(total, w)
			} else {
				g := sepG[pos].IDs[i]
				msgs[pos][g], err = addCheck(msgs[pos][g], w)
			}
			if err != nil {
				return 0, err
			}
		}
	}
	return total, nil
}

// CountAcyclicJoin projects r onto the schema's bags and counts the acyclic
// join cardinality without materializing it.
func CountAcyclicJoin(r *relation.Relation, s *jointree.Schema) (int64, error) {
	t, err := jointree.BuildJoinTree(s)
	if err != nil {
		return 0, err
	}
	rels, err := Projections(r, s)
	if err != nil {
		return 0, err
	}
	return CountTree(t, rels)
}

// CountTreeFloat is CountTree in float64 arithmetic; it never overflows but
// loses exactness above 2⁵³. Used for loss estimates of astronomically large
// joins.
func CountTreeFloat(t *jointree.JoinTree, rels []*relation.Relation) (float64, error) {
	plan, err := newTreePlan(t, rels)
	if err != nil {
		return 0, err
	}
	m := len(plan.rooted.Order)
	messages := make([][]float64, m)
	aggregate := func(pos int) float64 {
		rel := plan.rels[pos]
		var out []float64
		if pos > 0 {
			out = make([]float64, plan.groups[pos])
		}
		var total float64
		for i := 0; i < rel.N(); i++ {
			w := 1.0
			ok := true
			for _, c := range plan.children[pos] {
				cw := messages[c][plan.parentIDs[c][i]]
				if cw == 0 {
					ok = false
					break
				}
				w *= cw
			}
			if !ok {
				continue
			}
			if pos > 0 {
				out[plan.childIDs[pos][i]] += w
			} else {
				total += w
			}
		}
		messages[pos] = out
		return total
	}
	for pos := m - 1; pos >= 1; pos-- {
		aggregate(pos)
	}
	total := aggregate(0)
	if math.IsInf(total, 0) || math.IsNaN(total) {
		return 0, fmt.Errorf("join: float64 cardinality not finite")
	}
	return total, nil
}
