package engine

import "fmt"

// deltaRecord summarizes one Extend step: the generation and row range it
// spanned, which columns saw their value range widen (a dictionary grew), and
// how many groups every grouping memoized at extend time gained. Records are
// immutable once the child snapshot is published.
type deltaRecord struct {
	fromGen  int64
	fromRows int
	toRows   int
	dictGrew []bool         // per column: value range widened by this extend
	gained   map[string]int // memo key → groups gained (groupings memoized at extend time)
}

// maxDeltaChain bounds how many per-extend records a snapshot retains. Delta
// queries reaching further back than the retained horizon report !ok and the
// caller falls back to a cold recompute — the bound keeps long-lived
// streaming chains from accumulating unbounded history.
const maxDeltaChain = 64

// DeltaSummary answers "what changed between generation FromGen and this
// snapshot": the appended row range, per-column dictionary growth, and how
// many groups each memoized partition gained. It is derived from the
// immutable per-extend records along the snapshot chain, so it is safe for
// concurrent use and stays valid forever.
//
// Two facts shape its API. First, every appended row lands in some group of
// every partition, so the *counts* of every grouping change whenever any row
// was added — Changed is therefore equivalent to RowsAdded() > 0, and
// verbatim reuse of count-derived values across generations is impossible.
// What incremental consumers can exploit instead is that group IDs are
// stable along the chain (extension assigns exactly the IDs a from-scratch
// rebuild would), so state indexed by group ID extends by scanning only the
// appended row range [FromRows, ToRows). Second, GroupsGained distinguishes
// "this partition only grew existing groups" (gained 0 — e.g. distinct
// counts are unchanged) from genuinely new projected values.
type DeltaSummary struct {
	FromGen  int64
	ToGen    int64
	FromRows int // stored rows at FromGen
	ToRows   int // stored rows at ToGen
	s        *Snapshot
	recs     []deltaRecord
}

// Delta summarizes the changes between sinceGen and this snapshot's
// generation. ok is false when the chain cannot answer: sinceGen is in the
// future, predates the retained horizon (more than maxDeltaChain extends
// ago), or predates the snapshot's construction (a recovered snapshot has no
// history before its boot generation). sinceGen equal to the snapshot's own
// generation yields an empty summary with ok true.
func (s *Snapshot) Delta(sinceGen int64) (*DeltaSummary, bool) {
	if sinceGen > s.gen || sinceGen < 1 {
		return nil, false
	}
	d := &DeltaSummary{FromGen: sinceGen, ToGen: s.gen, ToRows: s.n, s: s}
	if sinceGen == s.gen {
		d.FromRows = s.n
		return d, true
	}
	// Records run fromGen = gen-1, gen-2, … backwards, one per extend; find
	// the suffix starting exactly at sinceGen.
	for i := len(s.deltas) - 1; i >= 0; i-- {
		if s.deltas[i].fromGen == sinceGen {
			d.recs = s.deltas[i:]
			d.FromRows = d.recs[0].fromRows
			return d, true
		}
		if s.deltas[i].fromGen < sinceGen {
			break
		}
	}
	return nil, false
}

// RowsAdded returns how many stored rows the chain appended over the summary
// range.
func (d *DeltaSummary) RowsAdded() int { return d.ToRows - d.FromRows }

// DictGrew reports whether the attribute's encoded value range widened over
// the range — a new dictionary code appeared for the column.
func (d *DeltaSummary) DictGrew(attr string) (bool, error) {
	c, ok := d.s.pos[attr]
	if !ok {
		return false, fmt.Errorf("engine: unknown attribute %q", attr)
	}
	for i := range d.recs {
		if d.recs[i].dictGrew[c] {
			return true, nil
		}
	}
	return false, nil
}

// GroupsGained returns how many groups the partition on attrs gained over
// the range. known is false when the grouping was not memoized across the
// whole range (it was first materialized mid-chain, so some extends carry no
// record for it); callers must then treat the partition as changed in an
// unknown way.
func (d *DeltaSummary) GroupsGained(attrs ...string) (gained int, known bool, err error) {
	cols, err := d.s.Columns(attrs)
	if err != nil {
		return 0, false, err
	}
	key := colsKey(cols)
	for i := range d.recs {
		g, ok := d.recs[i].gained[key]
		if !ok {
			return 0, false, nil
		}
		gained += g
	}
	return gained, true, nil
}

// Changed reports whether the partition on attrs changed between the two
// generations. Since every appended row joins some group of every partition,
// this is true exactly when rows were added; it exists so callers asking the
// natural question get the honest answer without re-deriving the invariant.
func (d *DeltaSummary) Changed(attrs ...string) (bool, error) {
	if _, err := d.s.Columns(attrs); err != nil {
		return false, err
	}
	return d.RowsAdded() > 0, nil
}
