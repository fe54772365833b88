package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ajdloss/internal/apischema"
	"ajdloss/internal/core"
	"ajdloss/internal/discovery"
	"ajdloss/internal/engine"
	"ajdloss/internal/infotheory"
	"ajdloss/internal/jointree"
	"ajdloss/internal/persist"
	"ajdloss/internal/relation"
	"ajdloss/internal/service"
)

// handlerRounds is how many handler passes of each kind (spans off, spans
// on) the traced run makes.
const handlerRounds = 3

// span is one timed call. Parent indexes the tracer's span slice (-1 for a
// request's root); spans of one request share req.
type span struct {
	Name   string `json:"name"`
	Req    int32  `json:"req"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; with on unset every call is a no-op.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer(on bool, capacity int) *tracer {
	t := &tracer{on: on, t0: time.Now()}
	if on {
		t.spans = make([]span, 0, capacity)
	}
	return t
}

func (t *tracer) begin(name string, req, parent int32) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].End = time.Since(t.t0).Nanoseconds()
	}
}

func (t *tracer) rename(i int32, name string) {
	if i >= 0 {
		t.spans[i].Name = name
	}
}

// selfTimes returns, per span name, each span's duration minus the time
// its children cover (children of one parent never overlap: the replay is
// single-threaded).
func selfTimes(spans []span) map[string][]float64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string][]float64)
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-child[i])/1e3)
	}
	return out
}

// traceResult is what the traced run reports.
type traceResult struct {
	self           map[string][]float64 // µs per span, by name (stages pass)
	handlerP50US   float64
	handlerMeanUS  float64
	handlerAllocs  float64
	overheadPct    float64
	plainPassMS    float64
	tracedPassMS   float64
	walBytesPerRow float64
	requests       int
	failed         int
	notes          []string
	spansPath      string
}

func (tr *traceResult) selfMedianUS(name string) float64 {
	if len(tr.self[name]) == 0 {
		return 0
	}
	return median(tr.self[name])
}

func (tr *traceResult) fail(err error) {
	tr.failed++
	if len(tr.notes) < 5 {
		tr.notes = append(tr.notes, err.Error())
	}
}

// replayOps is the workload's request sequence as the timed run sends it,
// flattened for one thread: warm-up first (untraced), then the first reads,
// with one append after every replayReadsPerAppend reads on append-mixed.
func replayOps(w *workload) (warm, timed []op) {
	for i := range w.replayReads {
		timed = append(timed, w.read(i))
		if w.append != nil && (i+1)%w.replayReadsPerAppend == 0 {
			timed = append(timed, w.append((i+1)/w.replayReadsPerAppend-1))
		}
	}
	// cold-analyze warms up on 200 schemas of its own; the replay keeps the
	// first 50, enough to populate the engine memo, so its passes stay short.
	warm = w.warm[:min(len(w.warm), 50)]
	return warm, timed
}

// newService builds a fresh service with the daemon's options and the
// generated dataset registered, as ajdlossd -load does.
func newService(w *workload, dir string) (*service.Service, error) {
	svc := service.New(256)
	svc.SetDefaultNamespace(ns)
	if w.durable {
		store, err := persist.Open(dir, persist.Options{CompactAt: w.walCompact, DefaultNamespace: ns})
		if err != nil {
			return nil, err
		}
		if _, err := svc.EnableDurability(store); err != nil {
			return nil, err
		}
	}
	if _, err := svc.Registry().Register(datasetName, bytes.NewReader(w.csv), true); err != nil {
		return nil, err
	}
	return svc, nil
}

// runTrace replays the workload in-process: two handler passes (spans off,
// then on) give handler time, allocations and tracing overhead, and a
// stages pass times each public call the handler makes, with the
// computation behind every computed answer replayed on a shadow relation.
func runTrace(ctx context.Context, w *workload, seed uint64, outDir string) (*traceResult, error) {
	dir, err := os.MkdirTemp(outDir, "trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	warm, timed := replayOps(w)
	tr := &traceResult{requests: len(timed), self: map[string][]float64{}}

	// Handler passes alternate spans off and on, each on a fresh service;
	// the figures are medians over handlerRounds passes of each kind, so a
	// slow stretch of the machine does not land on one side only.
	var plainMS, tracedMS, p50s, means, allocs []float64
	for round := range 2 * handlerRounds {
		traced := round%2 == 1
		h, err := handlerPass(w, filepath.Join(dir, fmt.Sprintf("pass-%d", round)), warm, timed, traced, tr)
		if err != nil {
			return nil, err
		}
		if traced {
			tracedMS = append(tracedMS, h.totalMS)
		} else {
			plainMS = append(plainMS, h.totalMS)
			p50s = append(p50s, h.p50US)
			means = append(means, h.meanUS)
			allocs = append(allocs, h.allocs)
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	tr.plainPassMS, tr.tracedPassMS = median(plainMS), median(tracedMS)
	tr.overheadPct = 100 * (tr.tracedPassMS - tr.plainPassMS) / tr.plainPassMS
	tr.handlerP50US, tr.handlerMeanUS, tr.handlerAllocs = median(p50s), median(means), median(allocs)

	spans, err := stagesPass(w, filepath.Join(dir, "stages"), warm, timed, tr)
	if err != nil {
		return nil, err
	}
	tr.self = selfTimes(spans)
	tr.spansPath = filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
	if err := writeSpans(tr.spansPath, spans); err != nil {
		return nil, err
	}
	return tr, nil
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func newRequest(o op) *http.Request {
	var body io.Reader = http.NoBody
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req := httptest.NewRequest(o.method, o.path, body)
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req
}

// handlerPassResult is one handler pass: the loop's wall time, the median
// request time, and heap allocations per request.
type handlerPassResult struct {
	totalMS float64
	p50US   float64
	meanUS  float64
	allocs  float64
}

// handlerPass sends every request through service.NewHandler(svc).ServeHTTP.
// Requests and recorders are built before the timed loop, so the loop's
// allocations are the handler's own (plus spans when traced).
func handlerPass(w *workload, dir string, warm, timed []op, traced bool, tr *traceResult) (handlerPassResult, error) {
	svc, err := newService(w, dir)
	if err != nil {
		return handlerPassResult{}, err
	}
	h := service.NewHandler(svc)
	for _, o := range warm {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, newRequest(o))
		if rec.Code != http.StatusOK {
			tr.fail(fmt.Errorf("replay warm-up %s: status %d", o.keyName, rec.Code))
		}
	}
	reqs := make([]*http.Request, len(timed))
	recs := make([]*httptest.ResponseRecorder, len(timed))
	for i, o := range timed {
		reqs[i], recs[i] = newRequest(o), httptest.NewRecorder()
	}
	durs := make([]float64, len(timed))
	t := newTracer(traced, 2*len(timed))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := range timed {
		root := t.begin("request", int32(i), -1)
		sp := t.begin("service.handler", int32(i), root)
		t0 := time.Now()
		h.ServeHTTP(recs[i], reqs[i])
		durs[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		t.end(sp)
		t.end(root)
	}
	total := time.Since(start)
	runtime.ReadMemStats(&after)
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			tr.fail(fmt.Errorf("replay %s: status %d: %.200s", timed[i].keyName, rec.Code, rec.Body.String()))
		}
	}
	return handlerPassResult{
		totalMS: ms(total),
		p50US:   median(durs),
		meanUS:  mean(durs),
		allocs:  float64(after.Mallocs-before.Mallocs) / float64(len(timed)),
	}, nil
}

// shadow is an in-process copy of the dataset kept in step with the
// service's, appends included, on which computed answers are replayed.
type shadow struct {
	rel  *relation.Relation
	enc  *relation.Encoder
	memo *discovery.Memo
}

func newShadow(w *workload) (*shadow, error) {
	rel, enc, err := relation.ReadCSV(bytes.NewReader(w.csv), true)
	if err != nil {
		return nil, err
	}
	// Registration warms the per-attribute entropies; so does the shadow.
	for _, a := range rel.Attrs() {
		if _, err := infotheory.Entropy(rel, a); err != nil {
			return nil, err
		}
	}
	return &shadow{rel: rel, enc: enc, memo: discovery.NewMemo()}, nil
}

// stagesPass runs every request as the chain of public calls the handler
// makes, one span per call, labelling each service call hit or computed
// from the Stats delta.
func stagesPass(w *workload, dir string, warm, timed []op, tr *traceResult) ([]span, error) {
	svc, err := newService(w, dir)
	if err != nil {
		return nil, err
	}
	sh, err := newShadow(w)
	if err != nil {
		return nil, err
	}
	st := &stager{svc: svc, sh: sh, tr: tr,
		batchSchema: apischema.BatchRequest(), appendSchema: apischema.AppendRequest()}
	st.t = newTracer(false, 0)
	for _, o := range warm {
		if err := st.run(o, -1); err != nil {
			tr.fail(err)
		}
	}
	st.t = newTracer(true, 12*len(timed))
	var walBytes, walRows int64
	for i, o := range timed {
		if o.kind != "append" {
			if err := st.run(o, int32(i)); err != nil {
				tr.fail(err)
			}
			continue
		}
		before := walSize(svc)
		if err := st.run(o, int32(i)); err != nil {
			tr.fail(err)
		}
		// A background compaction can shrink the WAL between the two reads;
		// only a clean growth is attributed to this append.
		if d := walSize(svc) - before; d > 0 {
			walBytes += d
			walRows += int64(len(o.rows))
		}
	}
	if walRows > 0 {
		tr.walBytesPerRow = float64(walBytes) / float64(walRows)
	}
	return st.t.spans, nil
}

func walSize(svc *service.Service) int64 {
	return svc.Stats().Durability[datasetName].WALBytes
}

type stager struct {
	svc          *service.Service
	sh           *shadow
	t            *tracer
	tr           *traceResult
	batchSchema  *apischema.Schema
	appendSchema *apischema.Schema
}

// call times one Service.*In call, labelling its span hit or computed from
// the Stats delta, then times the JSON encoding of its answer.
func (st *stager) call(req, root int32, fn func() (any, error)) (any, bool, error) {
	before := st.svc.Stats()
	sp := st.t.begin("service.call", req, root)
	v, err := fn()
	st.t.end(sp)
	after := st.svc.Stats()
	computed := after.Computed > before.Computed
	switch {
	case after.CacheHits > before.CacheHits:
		st.t.rename(sp, "service.call_hit")
	case computed:
		st.t.rename(sp, "service.call_computed")
	case after.Appends > before.Appends:
		st.t.rename(sp, "service.call_append")
	}
	if err != nil {
		return nil, false, err
	}
	sp = st.t.begin("json.encode", req, root)
	_, err = json.Marshal(v)
	st.t.end(sp)
	return v, computed, err
}

// run executes one request's stages; req < 0 marks untraced warm-up.
func (st *stager) run(o op, req int32) error {
	t := st.t
	root := t.begin("request", req, -1)
	defer t.end(root)
	switch o.kind {
	case "analyze":
		// AnalyzeIn parses the schema and checks acyclicity itself, before
		// its cache lookup; the same two calls are timed here on the same
		// input because the service has no hook inside the call.
		sp := t.begin("jointree.parse", req, root)
		s, err := jointree.ParseSchema(o.schema)
		t.end(sp)
		if err != nil {
			return err
		}
		sp = t.begin("jointree.acyclic", req, root)
		acyclic := jointree.IsAcyclic(s)
		t.end(sp)
		if !acyclic {
			return fmt.Errorf("replay: schema %s is cyclic", o.schema)
		}
		v, computed, err := st.call(req, root, func() (any, error) { return st.svc.AnalyzeIn(ns, datasetName, o.schema) })
		if err != nil {
			return err
		}
		if computed {
			return st.replayAnalyze(o, req, root, v.(*service.ReportView))
		}
	case "entropy":
		v, computed, err := st.call(req, root, func() (any, error) { return st.svc.EntropyIn(ns, datasetName, o.attrs, nil, nil, nil) })
		if err != nil {
			return err
		}
		if computed {
			rp := t.begin("replay", req, root)
			sp := t.begin("engine.entropy", req, rp)
			h, err := infotheory.Entropy(st.sh.rel.View(), o.attrs...)
			t.end(sp)
			t.end(rp)
			if err != nil {
				return err
			}
			if got := v.(*service.EntropyView).Nats; !near(got, h) {
				return fmt.Errorf("replay: entropy %g, service answered %g", h, got)
			}
		}
	case "batch":
		if !o.legacy {
			sp := t.begin("apischema.validate", req, root)
			err := st.batchSchema.ValidateJSON(o.body)
			t.end(sp)
			if err != nil {
				return err
			}
		}
		var body struct {
			Dataset string               `json:"dataset"`
			Queries []service.BatchQuery `json:"queries"`
		}
		sp := t.begin("json.decode", req, root)
		err := json.Unmarshal(o.body, &body)
		t.end(sp)
		if err != nil {
			return err
		}
		_, computed, err := st.call(req, root, func() (any, error) { return st.svc.BatchIn(ns, body.Dataset, body.Queries) })
		if err != nil {
			return err
		}
		if computed {
			return st.replayBatch(o, req, root)
		}
	case "discover":
		_, computed, err := st.call(req, root, func() (any, error) { return st.svc.DiscoverIn(ns, datasetName, o.target, o.maxSep) })
		if err != nil {
			return err
		}
		if computed {
			return st.replayDiscover(o, req, root)
		}
	case "append":
		sp := t.begin("apischema.validate", req, root)
		err := st.appendSchema.ValidateJSON(o.body)
		t.end(sp)
		if err != nil {
			return err
		}
		var body struct {
			Rows [][]json.Number `json:"rows"`
		}
		sp = t.begin("json.decode", req, root)
		err = json.Unmarshal(o.body, &body)
		records := make([][]string, len(body.Rows))
		for i, row := range body.Rows {
			records[i] = make([]string, len(row))
			for j, c := range row {
				records[i][j] = c.String()
			}
		}
		t.end(sp)
		if err != nil {
			return err
		}
		v, _, err := st.call(req, root, func() (any, error) { return st.svc.AppendIn(ns, datasetName, records, false) })
		if err != nil {
			return err
		}
		rp := t.begin("replay", req, root)
		sp = t.begin("relation.append", req, rp)
		tuples := make([]relation.Tuple, len(records))
		for i, rec := range records {
			if tuples[i], err = st.sh.enc.Encode(rec); err != nil {
				break
			}
		}
		added := 0
		if err == nil {
			added, err = st.sh.rel.Append(tuples)
		}
		t.end(sp)
		t.end(rp)
		if err != nil {
			return err
		}
		if got := v.(*service.AppendView); got.Appended != added || got.Rows != st.sh.rel.N() {
			return fmt.Errorf("replay: shadow appended %d (now %d rows), service %d (%d rows)", added, st.sh.rel.N(), got.Appended, got.Rows)
		}
	default:
		return fmt.Errorf("replay: unknown op kind %q", o.kind)
	}
	return nil
}

// replayAnalyze re-runs core.Analyze's steps on the shadow relation, one
// child span per step, and checks J and the join size against the answer.
func (st *stager) replayAnalyze(o op, req, root int32, got *service.ReportView) error {
	t := st.t
	rp := t.begin("replay", req, root)
	defer t.end(rp)
	rel := st.sh.rel.View()
	s, err := jointree.ParseSchema(o.schema)
	if err != nil {
		return err
	}
	s = s.Reduced()
	sp := t.begin("jointree.build_tree", req, rp)
	jt, err := jointree.BuildJoinTree(s)
	t.end(sp)
	if err != nil {
		return err
	}
	rooted, err := jointree.Root(jt, 0)
	if err != nil {
		return err
	}
	snap := rel.Snapshot()
	sp = t.begin("engine.plan_run", req, rp)
	err = runReportPlan(snap, rooted)
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin("core.jmeasure", req, rp)
	j, err := core.JMeasure(snap, jt)
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin("core.kl", req, rp)
	f, err := core.NewFactorization(rel, rooted)
	if err == nil {
		_, err = f.KLFromEmpirical()
	}
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin("core.decomposition", req, rp)
	dec, err := core.ComputeDecomposition(rel, rooted)
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin("core.sandwich", req, rp)
	_, err = core.ComputeSandwich(snap, rooted)
	t.end(sp)
	if err != nil {
		return err
	}
	if !near(j, got.J) || dec.Schema.JoinSize != got.Loss.JoinSize {
		return fmt.Errorf("replay: %s J=%g join=%d, service answered J=%g join=%d", o.schema, j, dec.Schema.JoinSize, got.J, got.Loss.JoinSize)
	}
	return nil
}

// runReportPlan enqueues the entropies a full report reads (bags,
// separators, the whole schema, the Theorem 2.2 prefix/suffix CMI terms and
// the edge-MVD CMI terms) in one engine plan and runs it, as core.Analyze
// does before combining them.
func runReportPlan(snap *engine.Snapshot, rooted *jointree.Rooted) error {
	p := snap.Plan()
	addCMI := func(a, b, c []string) error {
		for _, set := range [][]string{infotheory.Union(b, c), infotheory.Union(a, c), infotheory.Union(a, b, c), c} {
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

// replayBatch runs the batch's engine plan, evaluation and memo FD queries
// on the shadow relation.
func (st *stager) replayBatch(o op, req, root int32) error {
	t := st.t
	rp := t.begin("replay", req, root)
	defer t.end(rp)
	rel := st.sh.rel.View()
	snap := rel.Snapshot()
	qs := make([]engine.Query, len(o.batch))
	sp := t.begin("engine.plan_run", req, rp)
	p := snap.Plan()
	for i, q := range o.batch {
		qs[i] = engine.Query{Kind: q.Kind, Attrs: q.Attrs, Given: q.Given, A: q.A, B: q.B, X: q.X, Y: q.Y}
		if err := qs[i].AddToPlan(p); err != nil {
			t.end(sp)
			return err
		}
	}
	p.Run(0)
	t.end(sp)
	for _, q := range qs {
		if q.Kind == "fd" {
			sp := t.begin("discovery.fd", req, rp)
			_, _, err := st.sh.memo.FD(rel, q.X, q.Y)
			t.end(sp)
			if err != nil {
				return err
			}
			continue
		}
		sp := t.begin("engine.eval", req, rp)
		_, err := q.Eval(snap)
		t.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// replayDiscover runs discovery's steps on the shadow relation through the
// shadow's own discovery memo.
func (st *stager) replayDiscover(o op, req, root int32) error {
	t := st.t
	rp := t.begin("replay", req, root)
	defer t.end(rp)
	rel := st.sh.rel.View()
	sp := t.begin("discovery.chow_liu", req, rp)
	cl, err := st.sh.memo.ChowLiu(rel)
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin("core.loss_tree", req, rp)
	_, err = core.ComputeLossTree(rel, cl.Tree)
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin("discovery.coarsen", req, rp)
	path, err := discovery.Coarsen(rel, cl.Tree, o.target)
	t.end(sp)
	if err != nil {
		return err
	}
	if len(path) > 1 {
		sp = t.begin("core.loss_tree", req, rp)
		_, err = core.ComputeLossTree(rel, path[len(path)-1].Tree)
		t.end(sp)
		if err != nil {
			return err
		}
	}
	sp = t.begin("discovery.find_mvds", req, rp)
	mvds, err := st.sh.memo.FindMVDs(rel, o.maxSep, o.target)
	t.end(sp)
	if err != nil {
		return err
	}
	for _, m := range mvds {
		s, err := jointree.MVDSchema(m.X, m.Groups...)
		if err != nil {
			return err
		}
		sp = t.begin("core.loss", req, rp)
		_, err = core.ComputeLoss(rel, s)
		t.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// layerRow is one line of the per-layer table: the spans it aggregates,
// its per-layer metric, and the end-to-end metric it should move.
type layerRow struct {
	span   string
	metric string
	moves  string
	where  string
}

var layerTable = []layerRow{
	{"jointree.parse", "jointree.parse_us", "cpu_us_per_op, p50_ms", "hot-mixed (inside service.call_*: AnalyzeIn parses again)"},
	{"jointree.acyclic", "jointree.acyclic_us", "cpu_us_per_op, p50_ms", "hot-mixed (inside service.call_*; runs the GYO build)"},
	{"jointree.build_tree", "jointree.build_tree_us", "cpu_us_per_op, p50_ms", "computed analyze only (~0: hot-mixed)"},
	{"apischema.validate", "apischema.validate_us", "p50_ms; append_p50_ms", "hot-mixed; append-mixed"},
	{"json.decode", "json.decode_us", "p50_ms; append_p50_ms", "hot-mixed; append-mixed"},
	{"json.encode", "json.encode_us", "p50_ms", "hot-mixed"},
	{"service.call_hit", "service.call_hit_us", "cpu_us_per_op", "hot-mixed (hit)"},
	{"service.call_computed", "service.call_computed_us", "cpu_us_per_op, p50_ms", "cold-analyze (computed)"},
	{"service.call_append", "service.call_append_us", "append_p50_ms, append_p99_ms", "append-mixed (~0: others)"},
	{"core.jmeasure", "core.jmeasure_us", "cpu_us_per_op, p50_ms", "cold-analyze (~0: hot-mixed)"},
	{"core.kl", "core.kl_us", "cpu_us_per_op, p50_ms", "cold-analyze (~0: hot-mixed)"},
	{"core.decomposition", "core.decomposition_us", "cpu_us_per_op, p50_ms", "cold-analyze (~0: hot-mixed)"},
	{"core.sandwich", "core.sandwich_us", "cpu_us_per_op, p50_ms", "cold-analyze (~0: hot-mixed)"},
	{"core.loss_tree", "core.loss_tree_us", "cpu_us_per_op, p50_ms", "discover on append-mixed (~0: hot-mixed)"},
	{"engine.plan_run", "engine.plan_run_us", "p99_ms", "append-mixed, cold-analyze"},
	{"relation.append", "relation.append_us", "append_p50_ms, append_p99_ms, disk_bytes_per_row", "append-mixed (~0: others)"},
	{"engine.entropy", "", "p50_ms", "append-mixed"},
	{"engine.eval", "", "p50_ms", "append-mixed"},
	{"discovery.fd", "", "p99_ms", "append-mixed"},
	{"discovery.chow_liu", "", "p99_ms", "append-mixed"},
	{"discovery.coarsen", "", "p99_ms", "append-mixed"},
	{"discovery.find_mvds", "", "p99_ms", "append-mixed"},
	{"core.loss", "", "p99_ms", "append-mixed"},
	{"replay", "", "(remainder of the shadow replay beyond its child spans)", ""},
	{"request", "", "(remainder of a request beyond its stages: the bench loop and Stats reads)", ""},
}

// print writes the per-layer table and the remainders between the timed
// end-to-end p50, the handler and the stages.
func (tr *traceResult) print(out io.Writer, rep *report) {
	fmt.Fprintf(out, "# traced replay: %d requests single-threaded on fresh service.New instances; spans in %s\n", tr.requests, tr.spansPath)
	fmt.Fprintf(out, "# %s %12s %12s %8s  %-34s %s\n", pad("layer (self time)", 24), "p50_us", "mean_us", "count", "moves", "workload")
	for _, l := range layerTable {
		all := tr.self[l.span]
		if len(all) == 0 {
			fmt.Fprintf(out, "# %s %12s %12s %8d  %-34s %s\n", pad(l.span, 24), "-", "-", 0, l.moves, l.where)
			continue
		}
		fmt.Fprintf(out, "# %s %12.3f %12.3f %8d  %-34s %s\n", pad(l.span, 24), median(all), mean(all), len(all), l.moves, l.where)
	}
	e2e := rep.extra["p50_ms"].Value * 1000
	// The handler does not parse the schema itself: Service.AnalyzeIn does,
	// so the jointree spans, timed on the same input beside the call, are
	// already part of service.call_* and stay out of this sum.
	var stages float64
	for _, n := range []string{"apischema.validate", "json.decode",
		"service.call_hit", "service.call_computed", "service.call_append", "json.encode"} {
		for _, v := range tr.self[n] {
			stages += v
		}
	}
	stages /= float64(tr.requests)
	fmt.Fprintf(out, "# end-to-end p50 %.3f us (timed run, real socket)\n", e2e)
	fmt.Fprintf(out, "#   handler p50 %.3f us, mean %.3f us, %.1f allocs/request (handler pass, spans off)\n", tr.handlerP50US, tr.handlerMeanUS, tr.handlerAllocs)
	fmt.Fprintf(out, "#   remainder e2e p50 - handler p50 = service.transport_us %.3f us (socket, HTTP framing, client)\n", e2e-tr.handlerP50US)
	fmt.Fprintf(out, "#   stages (validate, decode, call, encode; parse and acyclic are inside the call) mean %.3f us per request; handler mean - stages = %.3f us (routing, query parsing, recorder)\n",
		stages, tr.handlerMeanUS-stages)
	fmt.Fprintf(out, "# tracing overhead: handler pass %.3f ms with spans, %.3f ms without (medians of %d each): %+.2f%%\n", tr.tracedPassMS, tr.plainPassMS, handlerRounds, tr.overheadPct)
	if tr.walBytesPerRow > 0 {
		fmt.Fprintf(out, "# persist: %.1f WAL bytes per appended row\n", tr.walBytesPerRow)
	}
	for _, n := range tr.notes {
		fmt.Fprintf(out, "# trace check failed: %s\n", n)
	}
}
