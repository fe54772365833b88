package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"ajdloss/internal/jointree"
	"ajdloss/internal/relation"
)

// Report is a complete loss analysis of an acyclic schema against a relation
// instance: every quantity the paper relates, side by side.
type Report struct {
	Schema *jointree.Schema
	Tree   *jointree.JoinTree

	N int // |R|

	// Information-theoretic loss.
	J  float64 // J(T) = D_KL(P‖P^T), nats
	KL float64 // D_KL(P‖P^T) from bag/separator group counts, not entropies (Theorem 3.2 check)

	// Combinatorial loss.
	Loss Loss

	// Bounds.
	RhoLower   float64   // e^J − 1 ≤ ρ (Lemma 4.1)
	MaxCMI     float64   // Theorem 2.2 lower bound on J (max edge-MVD CMI)
	SumCMI     float64   // Theorem 2.2 upper bound on J (Σ prefix/suffix CMI)
	PerMVD     []MVDTerm // peeling MVDs with loss + CMI (CMIs sum to J)
	SumLogLoss float64   // Σ log(1+ρ(R,φᵢ)) ≥ log(1+ρ(R,S)) (Prop 5.1)

	Lossless bool // R ⊨ AJD(S)
}

// Analyze runs the full analysis of schema s against relation r. The schema
// must be acyclic and cover all of r's attributes (∪ᵢ Ωᵢ = Ω). Redundant
// bags (contained in another bag) are removed first, per the paper's schema
// definition Ωᵢ ⊄ Ω_j: both ρ and J are invariant under the reduction, and
// Proposition 5.1 requires it.
func Analyze(r *relation.Relation, s *jointree.Schema) (*Report, error) {
	if err := checkInput(r, s); err != nil {
		return nil, err
	}
	t, err := jointree.BuildJoinTree(s.Reduced())
	if err != nil {
		return nil, err
	}
	return analyzeTree(r, t)
}

// AnalyzeTree is Analyze for t, the join tree the caller already built with
// GYO from s.Reduced(): callers that must build the tree anyway to check
// acyclicity pass it here instead of building it twice. Coverage is checked
// against s as given, so errors name the caller's schema.
func AnalyzeTree(r *relation.Relation, s *jointree.Schema, t *jointree.JoinTree) (*Report, error) {
	if err := checkInput(r, s); err != nil {
		return nil, err
	}
	return analyzeTree(r, t)
}

// checkInput rejects an empty relation and a schema that misses one of its
// attributes.
func checkInput(r *relation.Relation, s *jointree.Schema) error {
	if r.N() == 0 {
		return fmt.Errorf("core: cannot analyze an empty relation")
	}
	return checkCoverage(r, s)
}

// analyzeTree evaluates the report of t, a join tree of a reduced schema,
// on one snapshot of r: the report sees one consistent generation even if
// r is appended to concurrently.
//
// The tree is compiled once into the column sets every figure reads (see
// compiled), and one engine plan computes their entropies — shared
// refinements (bag prefixes, separators, CMI terms) exactly once, independent
// ones on the worker pool. J, the sandwich and the decomposition then only
// combine table values; the loss counts and the KL check read the bag,
// separator and MVD-side groupings the plan memoized. The exact telescoping
// terms are not compiled: the report has none.
func analyzeTree(r *relation.Relation, t *jointree.JoinTree) (*Report, error) {
	rooted, err := jointree.Root(t, 0)
	if err != nil {
		return nil, err
	}
	snap := r.Snapshot()
	c, err := compile(snap, t)
	if err != nil {
		return nil, err
	}
	if err := c.root(rooted); err != nil {
		return nil, err
	}
	c.prefixTerms(false)
	c.warm()

	rep := &Report{Schema: t.Schema(), Tree: t, N: snap.N()}
	rep.J = c.jmeasure()
	rep.KL = klCounts(snap.N(), groupings(snap, c.rbags), groupings(snap, c.rseps[1:]))
	dec, err := c.decomposition()
	if err != nil {
		return nil, err
	}
	rep.Loss = dec.Schema
	rep.PerMVD = dec.Terms
	rep.SumLogLoss = dec.SumLogLoss
	sandwich := c.sandwich()
	rep.MaxCMI = sandwich.Max
	rep.SumCMI = sandwich.Sum
	rep.RhoLower = RhoLowerBound(rep.J)
	rep.Lossless = rep.Loss.Spurious == 0
	return rep, nil
}

// checkCoverage verifies that the schema's bags cover every attribute of r.
func checkCoverage(r *relation.Relation, s *jointree.Schema) error {
	covered := make(map[string]struct{})
	for _, bag := range s.Bags() {
		for _, a := range bag {
			covered[a] = struct{}{}
		}
	}
	for _, a := range r.Attrs() {
		if _, ok := covered[a]; !ok {
			return fmt.Errorf("core: schema %s does not cover attribute %q of the relation", s, a)
		}
	}
	return nil
}

// String renders the report as an aligned plain-text block.
func (rep *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schema            %s\n", rep.Schema)
	fmt.Fprintf(&b, "|R|               %d\n", rep.N)
	fmt.Fprintf(&b, "join size         %d\n", rep.Loss.JoinSize)
	fmt.Fprintf(&b, "spurious tuples   %d\n", rep.Loss.Spurious)
	fmt.Fprintf(&b, "rho (loss)        %.6f\n", rep.Loss.Rho)
	fmt.Fprintf(&b, "log(1+rho)        %.6f nats\n", rep.Loss.LogOnePlusRho())
	fmt.Fprintf(&b, "J-measure         %.6f nats\n", rep.J)
	fmt.Fprintf(&b, "D_KL(P||P^T)      %.6f nats (Theorem 3.2: = J)\n", rep.KL)
	fmt.Fprintf(&b, "rho lower bound   %.6f (Lemma 4.1: e^J - 1)\n", rep.RhoLower)
	fmt.Fprintf(&b, "CMI sandwich      max %.6f <= J <= sum %.6f (Theorem 2.2)\n", rep.MaxCMI, rep.SumCMI)
	fmt.Fprintf(&b, "MVD decomposition sum log(1+rho_i) = %.6f (Prop 5.1 upper bound)\n", rep.SumLogLoss)
	fmt.Fprintf(&b, "lossless          %v\n", rep.Lossless)
	if len(rep.PerMVD) > 0 {
		fmt.Fprintf(&b, "support MVDs:\n")
		terms := append([]MVDTerm(nil), rep.PerMVD...)
		sort.Slice(terms, func(i, j int) bool { return terms[i].CMI > terms[j].CMI })
		for _, t := range terms {
			fmt.Fprintf(&b, "  %-40s rho=%.6f I=%.6f\n", t.MVD, t.Loss.Rho, t.CMI)
		}
	}
	return b.String()
}

// Verify checks the internal consistency of the report against the paper's
// sound theorems within tol: Theorem 3.2 (J = KL), Lemma 4.1, and
// Theorem 2.2 (edge form). A non-nil error means a theorem is numerically
// violated, which indicates a bug.
//
// Proposition 5.1 is deliberately NOT part of this check: property testing
// during this reproduction produced small counterexamples to it (see
// EXPERIMENTS.md, finding F2), so its status is reported separately by
// CheckDecomposition.
func (rep *Report) Verify(tol float64) error {
	if math.Abs(rep.J-rep.KL) > tol {
		return fmt.Errorf("core: Theorem 3.2 violated: J=%.12f vs KL=%.12f", rep.J, rep.KL)
	}
	logLoss := rep.Loss.LogOnePlusRho()
	if rep.J > logLoss+tol {
		return fmt.Errorf("core: Lemma 4.1 violated: J=%.12f > log(1+rho)=%.12f", rep.J, logLoss)
	}
	if rep.MaxCMI > rep.J+tol {
		return fmt.Errorf("core: Theorem 2.2 violated: max CMI %.12f > J %.12f", rep.MaxCMI, rep.J)
	}
	if rep.J > rep.SumCMI+tol {
		return fmt.Errorf("core: Theorem 2.2 violated: J %.12f > sum CMI %.12f", rep.J, rep.SumCMI)
	}
	return nil
}

// CheckDecomposition reports whether the Proposition 5.1 inequality
// log(1+ρ(R,S)) ≤ Σ_e log(1+ρ(R,φ_e)) holds for this report within tol,
// along with the slack (positive slack means the inequality holds with room
// to spare; negative means a violation). The inequality holds in the vast
// majority of instances but is not deterministic as the paper claims —
// finding F2 of this reproduction exhibits a reduced 3-bag, 30-tuple
// counterexample.
func (rep *Report) CheckDecomposition(tol float64) (holds bool, slack float64) {
	slack = rep.SumLogLoss - rep.Loss.LogOnePlusRho()
	return slack >= -tol, slack
}
