package engine

import (
	"runtime"
	"sync/atomic"
)

// This file holds the partition-refinement machinery shared by cold grouping
// construction, copy-on-write Extend, and the batch planner: a transient
// probe structure that maps (parent group id, column value) pairs to child
// group ids — dense-table backed when the value domain is small, hash-map
// backed otherwise — and a chunked parallel refinement that splits the row
// range across a worker pool and merges chunk-local id spaces
// deterministically, so the parallel path assigns group ids and first rows
// bit-identical to the serial one.

// maxProcsCap, when > 0, caps the number of worker goroutines any engine
// operation (refinement chunks, plan levels, batch evaluation) may use.
// Zero means "up to GOMAXPROCS". Set once at process start (cmd/ajdlossd
// -procs); reads are atomic so tests can flip it safely.
var maxProcsCap atomic.Int32

// SetMaxProcs caps the engine's worker parallelism at n goroutines
// (n <= 0 restores the default, GOMAXPROCS). It bounds CPU usage per
// operation, not correctness: results are bit-identical at every setting.
func SetMaxProcs(n int) {
	if n < 0 {
		n = 0
	}
	maxProcsCap.Store(int32(n))
}

// maxWorkers resolves a requested worker count (<= 0 means "default")
// against GOMAXPROCS and the SetMaxProcs cap.
func maxWorkers(requested int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if cap := int(maxProcsCap.Load()); cap > 0 && w > cap {
		w = cap
	}
	if w < 1 {
		w = 1
	}
	return w
}

const (
	// parallelRefineMinRows is the row count below which refinement always
	// runs serially: chunk bookkeeping and the merge pass cost O(groups ×
	// chunks), which only pays for itself on instances with enough rows per
	// chunk to amortize it.
	parallelRefineMinRows = 8192
	// refineMinChunk bounds how finely a row range is split; chunks smaller
	// than this thrash the merge pass for no scan-time win.
	refineMinChunk = 4096
	// probeKeyShift packs (parent id, value) into one uint64 map key; both
	// halves are 32-bit so the pairing is injective.
	probeKeyShift = 32
)

// probeKey packs a (parent group id, column value) pair into one map key.
func probeKey(parent int32, val Value) uint64 {
	return uint64(uint32(parent))<<probeKeyShift | uint64(uint32(val))
}

// probe maps (parent group id, column value) pairs to dense child group ids.
// Two representations share one interface:
//
//   - dense: a flat []int32 table indexed parent*width+value holding id+1
//     (so a freshly allocated, zeroed table is empty), used when the
//     column's values are small non-negative ints (dictionary encoding makes
//     this the overwhelmingly common case) and the table fits the budget.
//     Lookups are one multiply-add and a load — roughly an order of
//     magnitude cheaper than map operations, which dominated refinement.
//   - m: the map fallback for wide/negative domains or huge parent counts.
//
// A probe is sized for one snapshot: every parent id is below the parent
// grouping's group count and every value lies in the column's [0, width), so
// a dense probe never needs a fallback. Probes are transient — refine drops
// its probe once the grouping is built, and Extend rebuilds one from the
// grouping's first-occurrence rows (rebuildProbe).
type probe struct {
	width int32 // dense stride (max value + 1); 0 = map-only form
	dense []int32
	m     map[uint64]int32
}

// denseProbeBudget bounds the dense table size for an n-row refinement:
// generously larger than n (so low-cardinality lattice levels stay dense)
// but never unbounded, since parents × width can explode combinatorially on
// near-key attribute sets.
func denseProbeBudget(n int) int {
	b := 8*n + 1024
	const maxBudget = 1 << 22 // 16 MiB of int32 per live probe, worst case
	if b > maxBudget {
		b = maxBudget
	}
	return b
}

// newProbe sizes a probe for a refinement of parents groups by a column
// whose values fit [0, width); width <= 0 forces the map form. hint is the
// expected number of entries for the map form.
func newProbe(parents int, width int32, budget, hint int) *probe {
	if width > 0 && parents > 0 && int64(parents)*int64(width) <= int64(budget) {
		return &probe{width: width, dense: make([]int32, parents*int(width))}
	}
	return &probe{m: make(map[uint64]int32, hint)}
}

// lookup returns the child id for (parent, val), or -1 when absent.
func (p *probe) lookup(parent int32, val Value) int32 {
	if p.dense != nil {
		return p.dense[int(parent)*int(p.width)+int(val)] - 1
	}
	if id, ok := p.m[probeKey(parent, val)]; ok {
		return id
	}
	return -1
}

// insert records (parent, val) -> id. The caller has already checked the
// pair is absent.
func (p *probe) insert(parent int32, val Value, id int32) {
	if p.dense != nil {
		p.dense[int(parent)*int(p.width)+int(val)] = id + 1
		return
	}
	p.m[probeKey(parent, val)] = id
}

// rebuildProbe reconstructs the probe refine used to build g, the refinement
// of parent by column col, from g's first-occurrence rows: group k's key is
// (parent id, value) at row First[k]. It costs O(groups) plus the dense
// table's zeroed allocation. s is the snapshot whose parent grouping and
// column are passed in, so parent ids and values born since g was built fit
// the probe too.
func (s *Snapshot) rebuildProbe(g, parent *Grouping, col, extra int) *probe {
	column := s.cols[col]
	pr := newProbe(len(parent.Counts), s.probeWidth(col), denseProbeBudget(s.n), len(g.Counts)+extra)
	for k, r := range g.First {
		pr.insert(parent.IDs[r], column[r], int32(k))
	}
	return pr
}

// refineSerial splits every parent group by column values in one sequential
// scan; ids are assigned in first-occurrence row order.
func (s *Snapshot) refineSerial(parent *Grouping, col int, pr *probe) *Grouping {
	column := s.cols[col]
	ids := make([]int32, s.n, s.n+extendHeadroom(s.n))
	counts := make([]int, 0, len(parent.Counts)*2)
	first := make([]int32, 0, len(parent.Counts)*2)
	if s.weights == nil {
		for i := 0; i < s.n; i++ {
			pid := parent.IDs[i]
			v := column[i]
			id := pr.lookup(pid, v)
			if id < 0 {
				id = int32(len(counts))
				pr.insert(pid, v, id)
				counts = append(counts, 0)
				first = append(first, int32(i))
			}
			ids[i] = id
			counts[id]++
		}
	} else {
		for i := 0; i < s.n; i++ {
			pid := parent.IDs[i]
			v := column[i]
			id := pr.lookup(pid, v)
			if id < 0 {
				id = int32(len(counts))
				pr.insert(pid, v, id)
				counts = append(counts, 0)
				first = append(first, int32(i))
			}
			ids[i] = id
			counts[id] += int(s.weights[i])
		}
	}
	return &Grouping{IDs: ids, Counts: counts, First: first}
}

// refineChunk is one worker's share of a parallel refinement: rows [lo, hi)
// are assigned chunk-local ids (0.. in chunk-first-occurrence order) written
// into ids[lo:hi], and the chunk reports, in local-id order, each local
// group's (parent, value) key, its local count and its first row.
func (s *Snapshot) refineChunk(parent *Grouping, col int, lo, hi int, ids []int32, width int32, budget int) (keys []uint64, counts []int, first []int32) {
	column := s.cols[col]
	local := newProbe(len(parent.Counts), width, budget, (hi-lo)/4+8)
	keys = make([]uint64, 0, len(parent.Counts)+8)
	counts = make([]int, 0, len(parent.Counts)+8)
	first = make([]int32, 0, len(parent.Counts)+8)
	for i := lo; i < hi; i++ {
		pid := parent.IDs[i]
		v := column[i]
		id := local.lookup(pid, v)
		if id < 0 {
			id = int32(len(counts))
			local.insert(pid, v, id)
			keys = append(keys, probeKey(pid, v))
			counts = append(counts, 0)
			first = append(first, int32(i))
		}
		ids[i] = id
		if s.weights == nil {
			counts[id]++
		} else {
			counts[id] += int(s.weights[i])
		}
	}
	return keys, counts, first
}

// refineParallel runs the chunked refinement: chunks scan independently on
// the worker pool, chunk-local id spaces merge serially in chunk order (which
// reproduces global first-occurrence order exactly: a group's global first
// occurrence is in the first chunk that saw it, and local ids are ordered by
// first occurrence within their chunk), then a second parallel pass rewrites
// local ids to merged ids. A group's first row is the chunk-local first row
// of the chunk that created it, so ids, counts and first rows — and the
// merged probe — are identical to the serial scan's.
func (s *Snapshot) refineParallel(parent *Grouping, col int, pr *probe, workers int) *Grouping {
	chunks := workers
	if max := s.n / refineMinChunk; chunks > max {
		chunks = max
	}
	if chunks < 2 {
		return s.refineSerial(parent, col, pr)
	}
	ids := make([]int32, s.n, s.n+extendHeadroom(s.n))
	chunkKeys := make([][]uint64, chunks)
	chunkCounts := make([][]int, chunks)
	chunkFirst := make([][]int32, chunks)
	budget := denseProbeBudget(s.n)
	forEach(chunks, workers, func(c int) {
		lo := c * s.n / chunks
		hi := (c + 1) * s.n / chunks
		chunkKeys[c], chunkCounts[c], chunkFirst[c] = s.refineChunk(parent, col, lo, hi, ids, pr.width, budget)
	})
	// Deterministic merge: assign global ids to unseen keys in (chunk,
	// local-id) order == global first-occurrence order.
	counts := make([]int, 0, len(chunkCounts[0])*2)
	first := make([]int32, 0, len(chunkCounts[0])*2)
	remaps := make([][]int32, chunks)
	for c := 0; c < chunks; c++ {
		keys := chunkKeys[c]
		remap := make([]int32, len(keys))
		for l, k := range keys {
			pid := int32(k >> probeKeyShift)
			v := Value(uint32(k))
			id := pr.lookup(pid, v)
			if id < 0 {
				id = int32(len(counts))
				pr.insert(pid, v, id)
				counts = append(counts, 0)
				first = append(first, chunkFirst[c][l])
			}
			remap[l] = id
			counts[id] += chunkCounts[c][l]
		}
		remaps[c] = remap
	}
	forEach(chunks, workers, func(c int) {
		lo := c * s.n / chunks
		hi := (c + 1) * s.n / chunks
		remap := remaps[c]
		for i := lo; i < hi; i++ {
			ids[i] = remap[ids[i]]
		}
	})
	return &Grouping{IDs: ids, Counts: counts, First: first}
}

// refine splits every group of parent by the values of column col. New group
// ids are assigned in first-occurrence row order, which makes the result —
// and everything derived from it — deterministic and independent of the
// worker count. The probe lives only for the scan: Extend rebuilds it from
// the grouping's first rows, and incremental and from-scratch construction
// assign identical ids because both follow stored row order.
func (s *Snapshot) refine(parent *Grouping, col int) *Grouping {
	pr := newProbe(len(parent.Counts), s.probeWidth(col), denseProbeBudget(s.n), len(parent.Counts)*2)
	workers := maxWorkers(0)
	if s.n >= parallelRefineMinRows && workers > 1 {
		return s.refineParallel(parent, col, pr, workers)
	}
	return s.refineSerial(parent, col, pr)
}

// probeWidth returns the dense-probe stride for column col (its max value
// + 1), or 0 when the column holds negative values and must use map probes.
func (s *Snapshot) probeWidth(col int) int32 {
	if s.colMin[col] < 0 {
		return 0
	}
	return s.colMax[col] + 1
}

// extendHeadroom is the spare capacity grouping ID slices reserve beyond the
// current row count, so a typical streaming append batch extends memoized
// groupings in place (writes beyond the parent's length, which the parent
// never reads) instead of reallocating every ID slice per batch.
func extendHeadroom(n int) int {
	h := n / 64
	if h < 64 {
		h = 64
	}
	return h
}
