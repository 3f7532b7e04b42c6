// Package service implements the Graph Engine Service's HTTP layer: a small
// JSON API over the engine, serving ad-hoc Cypher queries, named LDBC
// workload queries, and dataset statistics. cmd/gesd wires it to a listener.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"ges/internal/cypher"
	"ges/internal/exec"
	"ges/internal/ldbc"
	"ges/internal/ldbc/queries"
	"ges/internal/storage"
)

// Server serves one dataset on one engine, which /query and /ldbc requests
// share (the runner's). Every plan-built request draws from the server's one
// memory pool, and /stats memory describes those. The stored procedures do not:
// IS6 draws from the queries package's own pool and IC13 and IC14 allocate
// their own batches, so /stats memory does not see them. The pool and the
// compiled-plan cache are the shared, concurrency-safe pieces.
type Server struct {
	ds     *ldbc.Dataset
	runner *queries.Runner
	eng    *exec.Engine
	pool   *storage.Pool
	cache  *cypher.Cache
	ldbc   map[string]*ldbcQuery // by query name, with its parameter schema
	// now is injectable for deterministic tests.
	now func() time.Time

	// Estimator drift: totals over /query executions. estRows is
	// the planner's pattern-cardinality estimate; actRows counts the rows
	// each query actually returned. Aggregating queries return fewer rows
	// than the pattern produced, so this is a coarse drift signal, not a
	// per-query q-error.
	estQueries atomic.Uint64
	estRows    atomic.Uint64
	actRows    atomic.Uint64
}

// Options is empty: a server has no setting beyond the engine mode. It
// stays, with NewWith, because the repository benchmark's client builds its
// server through NewWith(ds, mode, Options{}).
type Options struct{}

// MaxRequestBytes caps a POST body; a larger one is answered with 413.
const MaxRequestBytes = 1 << 20

// New wires a server for a dataset in the given engine mode.
func New(ds *ldbc.Dataset, mode exec.Mode) *Server {
	s := &Server{
		ds:    ds,
		pool:  storage.NewPool(),
		cache: cypher.NewCache(ds.Graph),
		ldbc:  ldbcSchemas(ds),
		now:   time.Now,
	}
	// Arenas released at the end of a request recycle into the next one.
	s.eng = &exec.Engine{Mode: mode, Pool: s.pool}
	s.runner = queries.NewRunnerWith(ds, s.eng, nil)
	return s
}

// NewWith is New; it stays for the repository benchmark's client, as
// Options does.
func NewWith(ds *ldbc.Dataset, mode exec.Mode, _ Options) *Server {
	return New(ds, mode)
}

// Mux returns the HTTP handler.
func (s *Server) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /ldbc", s.handleLDBC)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// QueryRequest is the body of POST /query.
type QueryRequest struct {
	Query string `json:"query"`
}

// Result is the JSON result table. The handlers write it straight from the
// engine's block (encode.go); the type documents the response shape and
// decodes it.
type Result struct {
	Columns []string       `json:"columns"`
	Rows    [][]any        `json:"rows"`
	Stats   map[string]any `json:"stats"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// A plan-cache hit skips the lex/parse/bind pipeline; Prepare binds the
	// request's literal values either way.
	pr, err := s.cache.Prepare(req.Query)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	start := s.now()
	snap := s.runner.Mgr.AcquireSnapshot()
	defer s.runner.Mgr.Release(snap)
	res, err := s.eng.Run(snap, pr.Plan)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.estQueries.Add(1)
	s.estRows.Add(uint64(pr.Est.Rows + 0.5))
	if res.Block != nil {
		s.actRows.Add(uint64(len(res.Block.Rows)))
	}
	writeResult(w, res.Block, map[string]any{
		"durationMs":            float64(s.now().Sub(start).Microseconds()) / 1000,
		"peakIntermediateBytes": res.PeakMem,
		"estimatedRows":         pr.Est.Rows,
		"anchor":                pr.Est.Anchor,
	})
}

// LDBCRequest is the body of POST /ldbc. Params may be omitted (or null) to
// draw parameters from the curated pools; given, they must be exactly the
// query's parameters, integers as integer literals and strings as strings.
// The handler scans the body itself (ldbcreq.go); the type documents the
// shape and encodes it.
type LDBCRequest struct {
	Name   string         `json:"name"`
	Params map[string]any `json:"params"`
}

func (s *Server) handleLDBC(w http.ResponseWriter, r *http.Request) {
	body := ldbcBodies.Get().(*ldbcBody)
	defer putLDBCBody(body)
	if _, err := body.buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxRequestBytes)); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if err := body.scan(); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	lq, ok := s.ldbc[string(body.name)]
	if !ok {
		upper := strings.ToUpper(string(body.name))
		if lq, ok = s.ldbc[upper]; !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("unknown query %q", upper))
			return
		}
	}
	var params queries.Params
	if body.hasParams {
		var err error
		if params, err = lq.bind(body); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
	} else {
		params = lq.q.GenParams(s.ds, s.ds.NewParamGen(s.now().UnixNano()))
	}
	start := s.now()
	fb, _, err := s.runner.Execute(lq.q, params)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeResult(w, fb, map[string]any{
		"durationMs": float64(s.now().Sub(start).Microseconds()) / 1000,
		"params":     renderParams(params),
	})
}

func renderParams(p queries.Params) map[string]any {
	out := make(map[string]any, len(p))
	for k, v := range p {
		out[k] = v.String()
	}
	return out
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.ds.Stats()
	_, version := s.runner.Mgr.Stats()
	hits, misses, size, capacity := s.cache.Stats()
	writeJSON(w, map[string]any{
		"simSF":         st.SF,
		"persons":       st.Persons,
		"vertices":      st.Vertices,
		"edges":         st.Edges,
		"bytes":         st.Bytes,
		"commitVersion": version,
		"planCache": map[string]any{
			"hits":     hits,
			"misses":   misses,
			"size":     size,
			"capacity": capacity,
		},
		"statistics": s.statsSection(),
		"overlay":    s.overlaySection(),
		"memory":     s.memorySection(),
		"planner": map[string]any{
			"estQueries":    s.estQueries.Load(),
			"estimatedRows": s.estRows.Load(),
			"actualRows":    s.actRows.Load(),
		},
	})
}

// overlaySection renders the delta-overlay and background-reseal gauges:
// aggregate depth and reseal counters, the fold's state — live pinned
// snapshots and foldLag, how many committed versions the fold horizon trails
// the newest by — stats-epoch staleness, and per-family overlay state in
// deterministic key order.
func (s *Server) overlaySection() map[string]any {
	g := s.ds.Graph
	cat := s.ds.H.Cat
	ov := g.Overlay()
	mgr := s.runner.Mgr
	pins, version := mgr.Stats()
	fams := make([]map[string]any, 0, ov.Families)
	for _, f := range g.OverlayFamilies() {
		fams = append(fams, map[string]any{
			"src":           cat.LabelName(f.Key.Src),
			"type":          cat.EdgeTypeName(f.Key.Et),
			"dst":           cat.LabelName(f.Key.Dst),
			"dir":           f.Key.Dir.String(),
			"sealedEntries": f.SealedEntries,
			"inserts":       f.Inserts,
			"deltaFraction": f.DeltaFraction,
		})
	}
	return map[string]any{
		"families":         ov.Families,
		"withDelta":        ov.WithDelta,
		"inserts":          ov.Inserts,
		"maxDeltaFraction": ov.MaxDeltaFraction,
		"reseals":          ov.Reseals,
		"resealMs":         float64(ov.ResealTime.Microseconds()) / 1000,
		"pins":             pins,
		"foldLag":          version - min(mgr.GCHorizon(), version),
		"statsEpoch":       ov.StatsEpoch,
		"statsStaleOps":    ov.StatsStale,
		"perFamily":        fams,
	}
}

// memorySection renders the executor recycling gauges: aggregate and
// per-class pool hit rates, buffer bytes drawn by running queries, bytes
// zeroed on get/put, per-object-pool counters, and the process GC totals the
// recycling exists to relieve.
func (s *Server) memorySection() map[string]any {
	st := s.pool.DetailedStats()
	classes := make([]map[string]any, 0, len(st.Classes))
	for _, c := range st.Classes {
		hr := 0.0
		if c.Gets > 0 {
			hr = float64(c.Hits) / float64(c.Gets)
		}
		classes = append(classes, map[string]any{
			"cap":     c.Cap,
			"gets":    c.Gets,
			"hits":    c.Hits,
			"puts":    c.Puts,
			"hitRate": hr,
		})
	}
	obj := func(o storage.ObjStat) map[string]any {
		return map[string]any{"gets": o.Gets, "hits": o.Hits, "puts": o.Puts}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return map[string]any{
		"poolGets":       st.Gets,
		"poolPuts":       st.Puts,
		"poolHitRate":    st.HitRate(),
		"liveArenaBytes": st.LiveBytes,
		"clearedBytes":   st.ClearedBytes,
		"classes":        classes,
		"objects": map[string]any{
			"columns": obj(st.Columns),
			"bitsets": obj(st.Bitsets),
			"ftrees":  obj(st.Trees),
			"batches": obj(st.Batches),
			"fblocks": obj(st.Blocks),
			"arenas":  obj(st.Arenas),
		},
		"gc": map[string]any{
			"cycles":          ms.NumGC,
			"pauseTotalMs":    float64(ms.PauseTotalNs) / 1e6,
			"heapAllocBytes":  ms.HeapAlloc,
			"totalAllocBytes": ms.TotalAlloc,
		},
	}
}

// statsSection renders the planner's statistics snapshot: build cost, label
// cardinalities and per-family degree summaries in deterministic key order.
func (s *Server) statsSection() map[string]any {
	snap := s.ds.Graph.Stats()
	if snap == nil {
		return map[string]any{"present": false}
	}
	cat := s.ds.H.Cat
	labels := make(map[string]int, len(snap.Labels))
	for l, card := range snap.Labels {
		labels[cat.LabelName(l)] = card
	}
	fams := make([]map[string]any, 0, len(snap.Families))
	for _, k := range snap.FamKeys() {
		f := snap.Families[k]
		dst := "*"
		if k.Dst != storage.AnyLabel {
			dst = cat.LabelName(k.Dst)
		}
		fams = append(fams, map[string]any{
			"src":       cat.LabelName(k.Src),
			"type":      cat.EdgeTypeName(k.Et),
			"dst":       dst,
			"dir":       k.Dir.String(),
			"edges":     f.Edges,
			"sources":   f.Sources,
			"maxDegree": f.MaxDegree,
			"p50Degree": f.Hist.Quantile(0.5),
			"p90Degree": f.Hist.Quantile(0.9),
		})
	}
	return map[string]any{
		"present":  true,
		"epoch":    snap.Epoch,
		"buildMs":  float64(snap.Build.Microseconds()) / 1000,
		"vertices": snap.Vertices,
		"edges":    snap.Edges,
		"columns":  len(snap.Columns),
		"labels":   labels,
		"families": fams,
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("service: encode: %v", err)
	}
}

// httpError answers with code, or 413 when err is a body over MaxRequestBytes.
func httpError(w http.ResponseWriter, code int, err error) {
	if errors.As(err, new(*http.MaxBytesError)) {
		code = http.StatusRequestEntityTooLarge
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
