package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/url"
	"strconv"
	"strings"

	"ajdloss/internal/join"
	"ajdloss/internal/jointree"
	"ajdloss/internal/randrel"
	"ajdloss/internal/relation"
	"ajdloss/internal/schemagen"
	"ajdloss/internal/service"
)

// ns is the namespace every request targets: the daemon's default, so the
// legacy unversioned routes and /v1/default/... reach the same datasets and
// share cache entries.
const ns = "default"

// datasetName is the one dataset each workload registers.
const datasetName = "ds"

// op is one request: how to send it, and what it asks, so the oracle can
// recompute the answer in-process.
type op struct {
	kind   string // analyze | entropy | batch | discover | append
	legacy bool   // sent through the unversioned route
	method string
	path   string
	body   []byte

	schema  string // analyze, in the CLI's "A,B;B,C" syntax
	attrs   []string
	batch   []service.BatchQuery
	target  float64
	maxSep  int
	rows    [][]string // append
	keyName string     // distinct-key label, shared by legacy and /v1 forms
}

// workload is one traffic mix against one generated dataset.
type workload struct {
	name string
	why  string
	csv  []byte // the dataset as the daemon loads it (-load ds=...)
	rows int

	durable    bool  // run the daemon with -data
	walCompact int64 // -wal-compact when durable

	replayReads int          // reads in the traced replay
	sampleEvery uint64       // the oracle recomputes one answer in sampleEvery; 0: every distinct answer
	warm        []op         // cycled during warm-up, never timed
	read        func(int) op // the i-th timed read; a pure function of the seed and i

	// append is set on append-mixed: one open-loop connection sends
	// append(j) every appendEvery, and the traced replay interleaves one
	// append after every replayReadsPerAppend reads.
	append               func(int) op
	appendEvery          float64 // seconds
	replayReadsPerAppend int

	sizes map[string]any // stated in the run metadata
}

func newWorkload(name string, seed uint64) (*workload, error) {
	switch name {
	case "hot-mixed":
		return hotMixed(seed)
	case "cold-analyze":
		return coldAnalyze(seed)
	case "append-mixed":
		return appendMixed(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want hot-mixed, cold-analyze or append-mixed)", name)
}

// rngFor derives an independent stream per purpose from the run seed.
func rngFor(seed uint64, stream uint64) *rand.Rand {
	return randrel.NewRand(seed*0x9e3779b97f4a7c15 + stream)
}

func csvOf(r *relation.Relation) ([]byte, error) {
	var b bytes.Buffer
	if err := relation.WriteCSV(&b, r, nil); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// hotMixed: read-only traffic on a 6-attribute random relation of 10k rows.
// Twelve distinct keys, far fewer than the daemon's -cache 256, so every
// request after warm-up is an LRU hit and routing, decode, validation,
// schema parse/acyclicity, key building and JSON encode do the work.
func hotMixed(seed uint64) (*workload, error) {
	attrs := []string{"A", "B", "C", "D", "E", "F"}
	model := randrel.Model{Attrs: attrs, Domains: []int{16, 16, 16, 16, 16, 16}, N: 10000}
	r, err := model.Sample(rngFor(seed, 1))
	if err != nil {
		return nil, err
	}
	data, err := csvOf(r)
	if err != nil {
		return nil, err
	}
	keys := []op{
		analyzeOp("A,B;B,C;C,D;D,E;E,F"),
		analyzeOp("A,B,C;C,D,E;E,F"),
		analyzeOp("A,B,C,D;D,E,F"),
		entropyOp([]string{"A", "B"}),
		entropyOp([]string{"C", "D"}),
		entropyOp([]string{"A", "E", "F"}),
		entropyOp([]string{"B"}),
		batchOp([]service.BatchQuery{
			{Kind: "entropy", Attrs: []string{"A", "B"}},
			{Kind: "mi", A: []string{"A"}, B: []string{"C"}},
			{Kind: "fd", X: []string{"A", "B"}, Y: []string{"C"}},
		}),
		batchOp([]service.BatchQuery{
			{Kind: "entropy", Attrs: []string{"C", "D", "E"}},
			{Kind: "mi", A: []string{"D"}, B: []string{"E", "F"}},
			{Kind: "fd", X: []string{"D", "E"}, Y: []string{"F"}},
		}),
		batchOp([]service.BatchQuery{
			{Kind: "entropy", Attrs: []string{"A", "F"}},
			{Kind: "mi", A: []string{"B"}, B: []string{"F"}},
			{Kind: "fd", X: []string{"B", "C"}, Y: []string{"A"}},
		}),
		discoverOp(0.01, 1),
		discoverOp(0.05, 1),
	}
	// Mix: analyze 30%, entropy 40%, batch 20%, discover 10%; a quarter of
	// all requests go through the legacy unversioned routes.
	const legacyShare = 0.25
	seq := mix(rngFor(seed, 2), keys, []int{10, 10, 10, 10, 10, 10, 10, 7, 7, 6, 5, 5}, legacyShare)
	warm := append([]op(nil), keys...)
	for _, k := range keys {
		warm = append(warm, k.asLegacy())
	}
	return &workload{
		name: "hot-mixed",
		why:  "12 keys ≪ -cache 256: every timed request is an LRU hit, so the HTTP/decode/validate/parse/encode path does the work",
		csv:  data, rows: r.N(),
		replayReads: 20000,
		warm:        warm,
		read:        func(i int) op { return seq[i%len(seq)] },
		sizes: map[string]any{
			"rows": r.N(), "attrs": len(attrs), "domain": 16, "distinct_keys": len(keys),
			"legacy_share": legacyShare,
		},
	}, nil
}

// plantedTreeSeed fixes cold-analyze's planted join tree.
const plantedTreeSeed = 13

// coldAnalyze: analyze requests over a 10-attribute planted relation of
// 13.5k rows (a schemagen lossless relation plus uniform noise). Every request
// carries a distinct random acyclic schema, thousands in all, so the LRU
// never hits and core loss counting plus engine refinement do the work.
func coldAnalyze(seed uint64) (*workload, error) {
	const nAttrs, domain, total = 10, 4, 13500
	attrs := schemagen.AttrNames(nAttrs)
	domains := schemagen.UniformDomains(attrs, domain)
	// The planted join tree is the same for every seed, so every seed serves
	// the same structure: {X1,X5,X6,X9},{X10,X2,X6,X9},{X3,X6,X7,X9},{X4,X6,X8}.
	jt, err := schemagen.RandomJoinTree(rngFor(plantedTreeSeed, 7), 4, nAttrs, 0.3)
	if err != nil {
		return nil, err
	}
	// The rows are drawn from the seed: retry the bag samples until the
	// lossless join lands in [12000, 13200] rows (about half of all draws
	// do), counting each draw with Yannakakis before materializing it, then
	// top up with uniform noise to exactly 13500 rows.
	var planted *relation.Relation
	for attempt := uint64(0); attempt < 1000 && planted == nil; attempt++ {
		size, err := plantedSize(rngFor(seed, 100+attempt), jt, domains, 60)
		if err != nil || size < 12000 || size > 13200 {
			continue
		}
		if planted, err = schemagen.LosslessRelation(rngFor(seed, 100+attempt), jt, domains, 60); err != nil {
			return nil, err
		}
	}
	if planted == nil {
		return nil, fmt.Errorf("cold-analyze: no planted relation of the target size for seed %d", seed)
	}
	plantedRows := planted.N()
	r, err := schemagen.NoisyRelation(rngFor(seed, 3), planted, domains, total-plantedRows)
	if err != nil {
		return nil, err
	}
	data, err := csvOf(r)
	if err != nil {
		return nil, err
	}
	// Distinct covering schemas with 2–5 bags. The first warmCount are used
	// only in warm-up, so no timed request repeats a warm-up key.
	const schemas, warmCount = 4000, 200
	rng := rngFor(seed, 4)
	seen := make(map[string]bool)
	var list []string
	for len(list) < schemas {
		s, err := schemagen.RandomAcyclicSchema(rng, 2+rng.IntN(4), nAttrs, 0.25)
		if err != nil {
			return nil, err
		}
		str := cliSchema(s)
		if seen[str] {
			continue
		}
		seen[str] = true
		list = append(list, str)
	}
	warm := make([]op, warmCount)
	for i := range warm {
		warm[i] = analyzeOp(list[i])
	}
	timed := list[warmCount:]
	return &workload{
		name: "cold-analyze",
		why:  "every request a distinct schema, thousands of keys ≫ -cache 256: the LRU never hits, core loss counting and engine refinement do the work",
		csv:  data, rows: r.N(),
		replayReads: 120,
		sampleEvery: 100,
		warm:        warm,
		read:        func(i int) op { return analyzeOp(timed[i%len(timed)]) },
		sizes: map[string]any{
			"rows": r.N(), "planted_rows": plantedRows, "noise_rows": total - plantedRows,
			"attrs": nAttrs, "domain": domain, "distinct_schemas": len(timed), "warm_schemas": warmCount,
		},
	}, nil
}

// plantedSize samples the bag relations LosslessRelation would sample from
// the same rng state and counts their join without materializing it.
func plantedSize(rng *rand.Rand, jt *jointree.JoinTree, domains map[string]int, perBag int) (int64, error) {
	rels := make([]*relation.Relation, jt.Len())
	for i, bag := range jt.Bags {
		ds := make([]int, len(bag))
		for k, a := range bag {
			ds[k] = domains[a]
		}
		m := randrel.Model{Attrs: bag, Domains: ds, N: perBag}
		if p, overflow := m.DomainProduct(); !overflow && int64(perBag) > p {
			m.N = int(p)
		}
		r, err := m.Sample(rng)
		if err != nil {
			return 0, err
		}
		rels[i] = r
	}
	return join.CountTree(jt, rels)
}

// appendMixed: writes beside reads with durability on. One connection
// sends JSON appends of rows drawn from the dataset's own model on a fixed
// schedule; the other sends closed-loop reads of a small key set. Every
// append that adds a row bumps the generation and evicts the dataset's
// cached results, so reads exercise snapshot Extend, discovery-memo delta
// refresh and incremental g3 while persist writes the WAL and compacts.
func appendMixed(seed uint64) (*workload, error) {
	attrs := []string{"A", "B", "C", "D", "E", "F"}
	domains := []int{6, 6, 6, 6, 6, 6}
	model := randrel.Model{Attrs: attrs, Domains: domains, N: 10000}
	r, err := model.Sample(rngFor(seed, 1))
	if err != nil {
		return nil, err
	}
	data, err := csvOf(r)
	if err != nil {
		return nil, err
	}
	// 22 keys: between two appends (10ms) the reader asks only a few of
	// them, so most reads recompute against the new generation and read
	// throughput follows the recompute cost instead of the hit ratio.
	keys := []op{
		analyzeOp("A,B,C;C,D;D,E,F"),
		analyzeOp("A,B;B,C,D;D,E;E,F"),
		analyzeOp("A,B,C,D;D,E,F"),
		analyzeOp("A,B;A,C;A,D;A,E;A,F"),
		analyzeOp("A,B,C;A,D,E;A,F"),
		analyzeOp("B,C;C,D,E;E,F,A"),
		entropyOp([]string{"A", "B", "C"}),
		entropyOp([]string{"D", "E"}),
		entropyOp([]string{"A"}),
		entropyOp([]string{"B", "D", "F"}),
		entropyOp([]string{"C", "E"}),
		entropyOp([]string{"A", "B", "C", "D"}),
		entropyOp([]string{"E", "F"}),
		entropyOp([]string{"B", "C"}),
		batchOp([]service.BatchQuery{
			{Kind: "fd", X: []string{"A", "B"}, Y: []string{"C"}},
			{Kind: "fd", X: []string{"C", "D", "E"}, Y: []string{"F"}},
			{Kind: "entropy", Attrs: []string{"B", "E"}},
		}),
		batchOp([]service.BatchQuery{
			{Kind: "fd", X: []string{"A"}, Y: []string{"B"}},
			{Kind: "fd", X: []string{"B", "C"}, Y: []string{"D"}},
			{Kind: "entropy", Attrs: []string{"A", "F"}},
		}),
		batchOp([]service.BatchQuery{
			{Kind: "fd", X: []string{"D", "E"}, Y: []string{"A"}},
			{Kind: "fd", X: []string{"A", "F"}, Y: []string{"B"}},
			{Kind: "entropy", Attrs: []string{"C", "D"}},
		}),
		batchOp([]service.BatchQuery{
			{Kind: "fd", X: []string{"C"}, Y: []string{"E"}},
			{Kind: "fd", X: []string{"A", "B", "D"}, Y: []string{"F"}},
			{Kind: "mi", A: []string{"A"}, B: []string{"E"}},
		}),
		batchOp([]service.BatchQuery{
			{Kind: "fd", X: []string{"B", "F"}, Y: []string{"A"}},
			{Kind: "fd", X: []string{"C", "E"}, Y: []string{"D"}},
			{Kind: "entropy", Attrs: []string{"A", "B", "F"}},
		}),
		batchOp([]service.BatchQuery{
			{Kind: "fd", X: []string{"A", "D"}, Y: []string{"C"}},
			{Kind: "fd", X: []string{"E", "F"}, Y: []string{"B"}},
			{Kind: "mi", A: []string{"B"}, B: []string{"C"}},
		}),
		discoverOp(0.01, 1),
		discoverOp(0.05, 1),
	}
	// Mix: analyze 30%, entropy 40%, batch 20%, discover 10%.
	seq := mix(rngFor(seed, 2), keys, []int{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 3, 3, 3, 4, 4, 3, 5, 5}, 0)
	const appendRows = 1
	const appendEvery = 0.010 // 100 appends/s
	return &workload{
		name: "append-mixed",
		why:  "an append every 10ms evicts the dataset's cache entries: reads exercise snapshot Extend, memo delta refresh and g3 while persist logs and compacts",
		csv:  data, rows: r.N(),
		durable:     true,
		walCompact:  16 << 10,
		replayReads: 400,
		sampleEvery: 150,
		warm:        keys,
		read:        func(i int) op { return seq[i%len(seq)] },
		// The j-th batch draws its rows from its own stream, so the schedule
		// has no length limit and the replay sees the same batches.
		append: func(j int) op {
			rng := rngFor(seed, 1000+uint64(j))
			rows := make([][]string, appendRows)
			for k := range rows {
				rows[k] = make([]string, len(attrs))
				for c, d := range domains {
					rows[k][c] = strconv.Itoa(1 + rng.IntN(d))
				}
			}
			return appendOp(rows)
		},
		appendEvery:          appendEvery,
		replayReadsPerAppend: 5,
		sizes: map[string]any{
			"rows": r.N(), "attrs": len(attrs), "domain": 6, "distinct_keys": len(keys),
			"append_rows_per_batch": appendRows, "appends_per_s": 1 / appendEvery,
			"max_growth_rows_per_s": appendRows / appendEvery, "wal_compact_bytes": 16 << 10,
		},
	}, nil
}

// mix draws a request sequence from keys with the given weights; a
// legacyShare of the requests go through the unversioned routes. The timed
// run cycles through it.
func mix(rng *rand.Rand, keys []op, weights []int, legacyShare float64) []op {
	var table []int
	for k, w := range weights {
		for range w {
			table = append(table, k)
		}
	}
	seq := make([]op, 1<<14)
	for i := range seq {
		seq[i] = keys[table[rng.IntN(len(table))]]
		if rng.Float64() < legacyShare {
			seq[i] = seq[i].asLegacy()
		}
	}
	return seq
}

// cliSchema renders a schema in the CLI's "A,B;B,C" syntax.
func cliSchema(s *jointree.Schema) string {
	parts := make([]string, len(s.Bags()))
	for i, bag := range s.Bags() {
		parts[i] = strings.Join(bag, ",")
	}
	return strings.Join(parts, ";")
}

func analyzeOp(schema string) op {
	q := url.Values{"dataset": {datasetName}, "schema": {strings.ReplaceAll(schema, ";", "|")}}
	return op{kind: "analyze", method: "GET", path: "/v1/" + ns + "/analyze?" + q.Encode(),
		schema: schema, keyName: "analyze " + schema}
}

func entropyOp(attrs []string) op {
	q := url.Values{"dataset": {datasetName}, "attrs": {strings.Join(attrs, ",")}}
	return op{kind: "entropy", method: "GET", path: "/v1/" + ns + "/entropy?" + q.Encode(),
		attrs: attrs, keyName: "entropy " + strings.Join(attrs, ",")}
}

func batchOp(qs []service.BatchQuery) op {
	body, err := json.Marshal(struct {
		Dataset string               `json:"dataset"`
		Queries []service.BatchQuery `json:"queries"`
	}{datasetName, qs})
	if err != nil {
		panic(err) // plain structs always marshal
	}
	return op{kind: "batch", method: "POST", path: "/v1/" + ns + "/batch", body: body,
		batch: qs, keyName: "batch " + string(body)}
}

func discoverOp(target float64, maxSep int) op {
	q := url.Values{"dataset": {datasetName},
		"target": {strconv.FormatFloat(target, 'g', -1, 64)}, "maxsep": {strconv.Itoa(maxSep)}}
	return op{kind: "discover", method: "GET", path: "/v1/" + ns + "/discover?" + q.Encode(),
		target: target, maxSep: maxSep, keyName: fmt.Sprintf("discover %g %d", target, maxSep)}
}

func appendOp(rows [][]string) op {
	var b strings.Builder
	b.WriteString(`{"rows":[`)
	for i, row := range rows {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("[" + strings.Join(row, ",") + "]")
	}
	b.WriteString("]}")
	return op{kind: "append", method: "POST", path: "/v1/" + ns + "/datasets/" + datasetName + "/append",
		body: []byte(b.String()), rows: rows, keyName: "append"}
}

// asLegacy returns the same request on the unversioned route.
func (o op) asLegacy() op {
	o.legacy = true
	o.path = strings.TrimPrefix(o.path, "/v1/"+ns)
	return o
}
