package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"ges/internal/catalog"
	"ges/internal/core"
	"ges/internal/cypher"
	"ges/internal/exec"
	"ges/internal/ldbc"
	"ges/internal/ldbc/queries"
	"ges/internal/plan"
	"ges/internal/service"
	"ges/internal/storage"
	"ges/internal/vector"
)

// span is one timed interval of the traced replay. Spans of one request
// share Req; Parent indexes the request's own span list (-1 for the root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// keepRequests bounds the trace file: spans of the first keepRequests
// requests are written out, self times of all of them are aggregated.
const keepRequests = 2000

// tracer records spans in memory. After each request it folds them into
// per-name self-time samples (span − children) and keeps the raw spans of
// the first keepRequests requests for the trace file.
type tracer struct {
	t0   time.Time
	req  int
	cur  []span
	self map[string][]int64
	kept []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), self: make(map[string][]int64)}
}

func (t *tracer) begin(name string, parent int) int {
	t.cur = append(t.cur, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: t.req})
	return len(t.cur) - 1
}

func (t *tracer) end(i int) { t.cur[i].End = int64(time.Since(t.t0)) }

// add records a span whose interval was measured elsewhere.
func (t *tracer) add(name string, parent int, start, end int64) {
	t.cur = append(t.cur, span{Name: name, Start: start, End: end, Parent: parent, Req: t.req})
}

// finish closes the request in flight.
func (t *tracer) finish() {
	child := make([]int64, len(t.cur))
	for _, s := range t.cur {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.cur {
		t.self[s.Name] = append(t.self[s.Name], s.End-s.Start-child[i])
	}
	if t.req < keepRequests {
		t.kept = append(t.kept, t.cur...)
	}
	t.cur = t.cur[:0]
	t.req++
}

// selfUS is the median self time of a span name in µs (0 if it never ran).
func (t *tracer) selfUS(name string) (float64, int) {
	return median(t.self[name]) / 1e3, len(t.self[name])
}

// write stores the kept spans as benchmark/out/trace-<workload>.json.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{
		"workload":        workload,
		"requests_traced": t.req,
		"requests_kept":   min(t.req, keepRequests),
		"spans":           t.kept,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}

// pipeline replays requests through the layers' public functions in the
// order the service's handlers call them, with a span around each call. It
// owns its dataset, transaction manager and pool, so what it measures is
// the same work as the handler's on an identical system, observed from
// outside. It must mirror service.handleLDBC / handleQuery and
// queries.Runner.Execute; where those change, this changes with them.
// checkMirror holds it to that: the rows it encodes must be the handler's.
type pipeline struct {
	ds     *ldbc.Dataset
	runner *queries.Runner // for its Mgr and view rule; execution is spelled out below
	pool   *storage.Pool
	plans  map[planKey]plan.Plan
	enc    bytes.Buffer

	*pipeMeasure
}

// pipeMeasure is what the replay recorded; warm-up's is thrown away.
type pipeMeasure struct {
	tr *tracer

	ops          int              // replayed requests, the open-loop writer's included
	readerOps    int              // requests of the closed-loop client's sequence
	readerBusy   time.Duration    // Σ CPU time of those
	rowHashes    []uint64         // of the first hashOps of those, as runPass keeps them
	opNS         map[string]int64 // Σ operator time by operator name
	runNS        int64            // Σ exec.run
	examined     int64            // Σ OpStat.OutRows
	returned     int64            // Σ result rows
	defactorNS   int64
	defactorRows int64
	peakMem      []int64
	runAll       []int64 // exec.run durations
	runIS        []int64
	selfIS       []int64
	encodedBytes int64
	misses       int
	poolBase     storage.PoolStats // pool counters when the measurement began
}

type planKey struct {
	norm  string
	epoch uint64
	kinds string
}

// planCacheCap bounds the pipeline's plan map like the service's LRU bounds
// its own; overflowing drops everything, which costs a handful of recompiles.
const planCacheCap = 256

func newPipeline(ds *ldbc.Dataset) *pipeline {
	return &pipeline{
		ds:     ds,
		runner: queries.NewRunner(ds, exec.ModeFused, nil),
		pool:   storage.NewPool(),
		plans:  make(map[planKey]plan.Plan),

		pipeMeasure: newPipeMeasure(),
	}
}

func newPipeMeasure() *pipeMeasure {
	return &pipeMeasure{tr: newTracer(), opNS: make(map[string]int64)}
}

// view is queries.Runner's rule: the base graph until something committed.
func (p *pipeline) view() storage.View {
	if _, ver := p.runner.Mgr.Stats(); ver > 0 {
		return p.runner.Mgr.Snapshot()
	}
	return p.ds.Graph
}

// serve replays one request; fromReader says whether it belongs to the
// closed-loop client's sequence (the one the handler pass times too).
func (p *pipeline) serve(req request, fromReader bool) error {
	c0 := threadTime()
	root := p.tr.begin("request", -1)
	var err error
	if req.path == "/ldbc" {
		err = p.serveLDBC(req, root)
	} else {
		err = p.serveQuery(req, root)
	}
	p.tr.end(root)
	p.tr.finish()
	p.ops++
	if fromReader {
		p.readerOps++
		p.readerBusy += threadTime() - c0
		if err == nil && len(p.rowHashes) < hashOps {
			p.rowHashes = append(p.rowHashes, hashRows(p.enc.Bytes()))
		}
	}
	return err
}

func (p *pipeline) serveLDBC(req request, root int) error {
	tr := p.tr
	s := tr.begin("service.decode", root)
	var lr service.LDBCRequest
	err := json.NewDecoder(bytes.NewReader(req.body)).Decode(&lr)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("service.params", root)
	q, err := queries.ByName(strings.ToUpper(lr.Name))
	var params queries.Params
	if err == nil {
		params, err = bindLDBCParams(lr.Params)
	}
	tr.end(s)
	if err != nil {
		return err
	}

	start := time.Now()
	var fb *core.FlatBlock
	switch {
	case q.Build != nil:
		s = tr.begin("txn.snapshot", root)
		view := p.view()
		tr.end(s)
		s = tr.begin("queries.build", root)
		pl := q.Build(p.ds.H, params)
		tr.end(s)
		if fb, err = p.run(view, pl, root, req.class); err != nil {
			return err
		}
	case q.Proc != nil:
		s = tr.begin("txn.snapshot", root)
		view := p.view()
		tr.end(s)
		s = tr.begin("queries.proc", root)
		fb, err = q.Proc(view, p.ds.H, params)
		tr.end(s)
		if err != nil {
			return err
		}
	default:
		s = tr.begin("txn.update", root)
		err = q.Update(p.runner.Mgr, p.ds, params)
		tr.end(s)
		if err != nil {
			return err
		}
	}
	rendered := make(map[string]any, len(params))
	for k, v := range params {
		rendered[k] = v.String()
	}
	return p.encode(fb, root, map[string]any{
		"durationMs": float64(time.Since(start).Microseconds()) / 1000,
		"params":     rendered,
	})
}

// bindLDBCParams is service.Server.bindParams for explicit params.
func bindLDBCParams(raw map[string]any) (queries.Params, error) {
	params := make(queries.Params, len(raw))
	for k, v := range raw {
		switch x := v.(type) {
		case float64:
			if strings.Contains(strings.ToLower(k), "date") {
				params[k] = vector.Date(int64(x))
			} else {
				params[k] = vector.Int64(int64(x))
			}
		case string:
			params[k] = vector.String_(x)
		default:
			return nil, fmt.Errorf("parameter %q has unsupported type %T", k, v)
		}
	}
	return params, nil
}

func (p *pipeline) serveQuery(req request, root int) error {
	tr := p.tr
	s := tr.begin("service.decode", root)
	var qr service.QueryRequest
	err := json.NewDecoder(bytes.NewReader(req.body)).Decode(&qr)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("cypher.normalize", root)
	norm, params, err := cypher.Normalize(qr.Query)
	tr.end(s)
	if err != nil {
		return err
	}
	kinds := make([]byte, len(params))
	for i, v := range params {
		kinds[i] = byte('0' + int(v.Kind))
	}
	key := planKey{norm: norm, epoch: p.ds.Graph.StatsEpoch(), kinds: string(kinds)}
	pl, ok := p.plans[key]
	if !ok {
		p.misses++
		s = tr.begin("cypher.compile", root)
		c, err := cypher.CompileWith(norm, p.ds.H.Cat, cypher.Options{
			Cost: plan.NewCostModel(p.ds.Graph.Stats()), Params: params})
		tr.end(s)
		if err != nil {
			return err
		}
		pl = c.Plan
		if len(p.plans) >= planCacheCap {
			clear(p.plans)
		}
		p.plans[key] = pl
	}
	s = tr.begin("txn.snapshot", root)
	view := p.runner.Mgr.Snapshot()
	tr.end(s)
	start := time.Now()
	if len(params) > 0 {
		s = tr.begin("plan.bind_params", root)
		pl = plan.BindParams(pl, params)
		tr.end(s)
	}
	fb, err := p.run(view, pl, root, req.class)
	if err != nil {
		return err
	}
	return p.encode(fb, root, map[string]any{
		"durationMs":            float64(time.Since(start).Microseconds()) / 1000,
		"peakIntermediateBytes": p.peakMem[len(p.peakMem)-1],
	})
}

// run is exec.Engine.Run in ModeFused with the fusion step pulled out under
// its own span: the plan is fused here and executed in ModeFactorized, which
// differs from ModeFused only in that rewrite.
func (p *pipeline) run(view storage.View, pl plan.Plan, root int, c class) (*core.FlatBlock, error) {
	tr := p.tr
	s := tr.begin("plan.fuse", root)
	pl = plan.Fuse(pl)
	tr.end(s)

	eng := &exec.Engine{Mode: exec.ModeFactorized, Pool: p.pool, CollectStats: true}
	s = tr.begin("exec.run", root)
	res, err := eng.Run(view, pl)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	// Operators run back to back; OpStat carries durations, so each child
	// span starts where the previous one ended.
	at := tr.cur[s].Start
	var opSum int64
	for _, os := range res.OpStats {
		d := int64(os.Duration)
		tr.add("op."+os.Name, s, at, at+d)
		at += d
		opSum += d
		p.opNS[os.Name] += d
		p.examined += int64(os.OutRows)
		if os.Name == "Defactor" {
			p.defactorNS += d
			p.defactorRows += int64(os.OutRows)
		}
	}
	d := tr.cur[s].End - tr.cur[s].Start
	p.runNS += d
	p.runAll = append(p.runAll, d)
	if c == classIS {
		p.runIS = append(p.runIS, d)
		p.selfIS = append(p.selfIS, d-opSum)
	}
	p.returned += int64(res.Block.NumRows())
	p.peakMem = append(p.peakMem, int64(res.PeakMem))
	return res.Block, nil
}

func (p *pipeline) encode(fb *core.FlatBlock, root int, stats map[string]any) error {
	s := p.tr.begin("service.encode", root)
	p.enc.Reset()
	err := json.NewEncoder(&p.enc).Encode(toResult(fb, stats))
	p.tr.end(s)
	p.encodedBytes += int64(p.enc.Len())
	return err
}

// runPipeline replays the workload's seeded sequence through the pipeline:
// the same warm-up, then the same measured sequence, for `seconds` of wall
// time (or cfg.ops operations). Any failed replay is an error.
func runPipeline(p *pipeline, cfg config, wl workload, seconds float64) error {
	runtime.LockOSThread() // for the thread's CPU clock, as in runPass
	defer runtime.UnlockOSThread()
	if err := warmRequests(p.ds, wl, func(req request) error { return p.serve(req, false) }); err != nil {
		return fmt.Errorf("pipeline warm-up: %w", err)
	}
	p.pipeMeasure = newPipeMeasure()
	p.poolBase = p.pool.DetailedStats()

	reader := wl.reader(p.ds, streamSeed(cfg.seed, streamReader))
	var writer stream
	var interval time.Duration
	if wl.writerMix != nil {
		// The replay is single-threaded: writes are interleaved at the
		// workload's write rate, on the replay's own clock.
		writer = wl.writer(p.ds, streamSeed(cfg.seed, streamWriter))
		interval = time.Duration(float64(time.Second) / wl.writeRate)
	}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	writes, reads := 0, 0
	for {
		now := time.Now()
		if cfg.ops > 0 {
			if reads >= cfg.ops {
				break
			}
		} else if !now.Before(deadline) {
			break
		}
		if writer != nil && now.Sub(start) >= time.Duration(writes)*interval {
			writes++
			if err := p.serve(writer.next(), false); err != nil {
				return fmt.Errorf("pipeline: %w", err)
			}
			continue
		}
		reads++
		if err := p.serve(reader.next(), true); err != nil {
			return fmt.Errorf("pipeline: %w", err)
		}
	}
	return nil
}

// probeSources is how many seeded Person sources the storage probes use.
const (
	probeSources = 1024
	probeRounds  = 15
)

// storageProbes times the storage layer's batched read kernels directly on a
// view, over a fixed set of sources (setupSeed): the KNOWS-out adjacency of
// probeSources persons, a property gather over the neighbours it returned,
// and a 2-way sorted-run intersection per source. Each is the median of
// probeRounds repetitions.
type storageProbes struct {
	neighborsNSPerEdge  float64
	gatherNSPerValue    float64
	intersectNSPerProbe float64
}

func probeStorage(ds *ldbc.Dataset, view storage.View) storageProbes {
	h := ds.H
	rng := rand.New(rand.NewSource(streamSeed(setupSeed, streamProbe)))
	srcs := make([]vector.VID, probeSources)
	for i := range srcs {
		srcs[i] = ds.Persons[rng.Intn(len(ds.Persons))]
	}
	timeIt := func(fn func()) float64 {
		ds := make([]int64, probeRounds)
		for i := range ds {
			t0 := time.Now()
			fn()
			ds[i] = int64(time.Since(t0))
		}
		return median(ds)
	}

	var base storage.Batch
	nb := timeIt(func() { view.NeighborsBatch(srcs, h.Knows, catalog.Out, h.Person, false, &base) })
	edges := len(base.VIDs)
	if edges == 0 {
		return storageProbes{}
	}

	nbrs := append([]vector.VID(nil), base.VIDs...)
	out := vector.NewColumn("creationDate", vector.KindDate)
	ga := timeIt(func() {
		out.Grow(len(nbrs))
		view.GatherProps(nbrs, h.Person, h.PCreation, nil, out)
	})

	// Intersect each source's friends with the friends of its first friend:
	// the closing step of the triangle query.
	others := make([]vector.VID, len(srcs))
	for i := range srcs {
		others[i] = srcs[i]
		if run := base.Run(i); len(run) > 0 {
			others[i] = run[0]
		}
	}
	var probe storage.Batch
	view.NeighborsBatch(others, h.Knows, catalog.Out, h.Person, false, &probe)
	var x storage.Intersector
	var buf []vector.VID
	is := timeIt(func() {
		x.Reset(&base, []*storage.Batch{&probe}, [][]vector.VID{others}, true)
		for i := range srcs {
			buf = x.Row(buf[:0], i)
		}
	})
	return storageProbes{
		neighborsNSPerEdge:  nb / float64(edges),
		gatherNSPerValue:    ga / float64(len(nbrs)),
		intersectNSPerProbe: is / float64(len(srcs)),
	}
}

// checkMirror compares, response by response, the rows the pipeline encoded
// with the rows the handler served for the same seeded sequence. The pipeline
// is a second spelling of the handler's work; the day the two part, every
// per-layer metric would describe a pipeline nobody runs, so a traced run
// whose replay returns different rows fails. Single-client workloads only:
// with a concurrent writer the rows depend on the interleaving.
func checkMirror(handler, replay []uint64) error {
	n := min(len(handler), len(replay))
	for i := 0; i < n; i++ {
		if handler[i] != replay[i] {
			return fmt.Errorf("traced replay diverged from the handler at operation %d: rows hash %x, handler %x", i, replay[i], handler[i])
		}
	}
	if n == 0 && len(handler) > 0 {
		return fmt.Errorf("traced replay served no operation to compare with the handler's")
	}
	return nil
}
