package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"
	"unsafe"

	"ges/internal/exec"
	"ges/internal/ldbc"
	"ges/internal/service"
)

// respWriter is the in-process stand-in for the client's socket: it keeps
// the status and the body, and is reused across requests.
type respWriter struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (w *respWriter) Header() http.Header         { return w.hdr }
func (w *respWriter) WriteHeader(code int)        { w.code = code }
func (w *respWriter) Write(b []byte) (int, error) { return w.body.Write(b) }

// client issues requests against the handler the way gesd's listener would,
// minus the kernel socket.
type client struct {
	mux *http.ServeMux
	w   respWriter
	rd  bytes.Reader
}

func newClient(mux *http.ServeMux) *client {
	return &client{mux: mux, w: respWriter{hdr: make(http.Header)}}
}

// served is what one request cost: the handler's wall time, and the CPU time
// of the calling thread over the same interval (meaningful only while the
// caller has its goroutine locked to the thread; see cpuclock.go).
type served struct{ wall, cpu time.Duration }

// do serves one request. The response stays in c.w until the next call.
func (c *client) do(method, path string, body []byte) (served, error) {
	c.rd.Reset(body)
	r, err := http.NewRequest(method, path, &c.rd)
	if err != nil {
		return served{}, err
	}
	c.w.code = http.StatusOK
	c.w.body.Reset()
	t0, c0 := time.Now(), threadTime()
	c.mux.ServeHTTP(&c.w, r)
	return served{cpu: threadTime() - c0, wall: time.Since(t0)}, nil
}

func (c *client) ok() bool { return c.w.code == http.StatusOK }

// getStats fetches GET /stats as a generic JSON tree.
func (c *client) getStats() (map[string]any, error) {
	if _, err := c.do("GET", "/stats", nil); err != nil {
		return nil, err
	}
	if !c.ok() {
		return nil, fmt.Errorf("GET /stats: status %d", c.w.code)
	}
	var m map[string]any
	if err := json.Unmarshal(c.w.body.Bytes(), &m); err != nil {
		return nil, fmt.Errorf("GET /stats: %w", err)
	}
	return m, nil
}

// env is one set-up system under test: a generated dataset behind a server
// built with gesd's shipped defaults.
type env struct {
	ds  *ldbc.Dataset
	mux *http.ServeMux

	generate, construct, warmup time.Duration
	// setupCPU is the user-mode CPU time of the whole process over those steps:
	// what setup_s reports.
	setupCPU time.Duration
	// stolen is the share of the machine's CPU capacity the hypervisor
	// withheld over the same steps (the worse of the two stretches).
	stolen float64
	// ackedIU counts acknowledged updates since construction.
	ackedIU int
}

// newEnv generates the dataset and builds the server. Warm-up is a separate
// step so the oracle check can run on the pristine graph in between.
func newEnv(sf float64) (*env, error) {
	t0, c0, m0 := time.Now(), userTime(), markNow()
	ds, err := ldbc.Generate(ldbc.Config{SF: sf, Seed: datasetSeed})
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	t1 := time.Now()
	srv := service.NewWith(ds, exec.ModeFused, service.Options{})
	e := &env{ds: ds, mux: srv.Mux()}
	e.generate, e.construct = t1.Sub(t0), time.Since(t1)
	e.setupCPU = userTime() - c0
	e.stolen = stolenFrac(m0, markNow())
	return e, nil
}

// warm issues warm-up requests from streams disjoint from the measured ones
// so the plan cache, the pools and lazily built state are filled before
// timing starts.
func (e *env) warm(wl workload) error {
	t0, c0, m0 := time.Now(), userTime(), markNow()
	c := newClient(e.mux)
	err := warmRequests(e.ds, wl, func(req request) error {
		if _, err := c.do("POST", req.path, req.body); err != nil {
			return err
		}
		if !c.ok() {
			return fmt.Errorf("warm-up %s %s: status %d: %s", req.name, req.body, c.w.code, c.w.body.Bytes())
		}
		if req.class == classIU {
			e.ackedIU++
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.warmup = time.Since(t0)
	e.setupCPU += userTime() - c0
	e.stolen = max(e.stolen, stolenFrac(m0, markNow()))
	return nil
}

// warmRequests hands serve the warm-up sequence: the workload's own request
// shapes, drawn with setupSeed — first the preloaded writes, then warmOps
// requests, reader and writer (where there is one) taking turns.
func warmRequests(ds *ldbc.Dataset, wl workload, serve func(request) error) error {
	streams := []stream{wl.reader(ds, streamSeed(setupSeed, streamWarmReader))}
	if wl.writerMix != nil {
		streams = append(streams, wl.writer(ds, streamSeed(setupSeed, streamWarmWriter)))
	}
	for i := 0; i < wl.preloadWrites+wl.warmOps; i++ {
		s := streams[len(streams)-1] // the writer's, while preloading
		if i >= wl.preloadWrites {
			s = streams[i%len(streams)]
		}
		if err := serve(s.next()); err != nil {
			return err
		}
	}
	return nil
}

// passResult is what one pass through ServeHTTP measured.
type passResult struct {
	// seq is the reader's operations in order; blockOps of them make one
	// block (see stream.blockOps).
	seq      []opSample
	blockOps int
	// marks[i] was taken before operation i*blockOps, so marks[i] and
	// marks[i+1] bracket block i; end closes the last one.
	marks []mark
	end   mark
	// ref holds the reference passes the reader interleaved (reference.go).
	ref      *reference
	lat      [numClasses][]int64 // handler wall per class, ns
	overhead []int64             // handler wall − response stats.durationMs, ns (traced run only)
	ops      int
	failed   int
	delayed  int           // operations slower than the 100 ms audit threshold
	busy     time.Duration // Σ CPU time of the reader's operations

	writer writerResult

	acks
	// rowHashes are the hashes of the first hashOps responses' rows, in
	// order (single-client workloads only).
	rowHashes []uint64

	statsBefore, statsAfter map[string]any
	memBefore, memAfter     runtime.MemStats
	// heapLive is the heap still reachable once the pass has stopped and
	// idle pool buffers are collected — dataset, transaction overlays, plan
	// cache, server state — less the reader's own sample slices, whose size
	// follows the machine's speed.
	heapLive uint64
}

// opSample is one completed reader operation.
type opSample struct {
	class class
	ns    int64 // CPU time of the serving thread
}

const auditThreshold = 100 * time.Millisecond

// runPass drives the workload through ServeHTTP: one closed-loop reader and,
// where the workload has one, one open-loop writer. It stops after cfg.ops
// reader operations, or when cfg.seconds of wall time have passed if
// cfg.ops is 0. withOverhead additionally parses each response's
// stats.durationMs.
func runPass(e *env, cfg config, wl workload, seconds float64, withOverhead bool) (*passResult, error) {
	// The handler runs on the caller's goroutine; pinned to one thread, that
	// thread's CPU clock times each operation.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	res := &passResult{ref: newReference()}
	c := newClient(e.mux)
	var err error
	if res.statsBefore, err = c.getStats(); err != nil {
		return nil, err
	}
	reader := wl.reader(e.ds, streamSeed(cfg.seed, streamReader))
	res.blockOps = reader.blockOps()
	hashing := wl.writerMix == nil

	runtime.GC()
	runtime.ReadMemStats(&res.memBefore)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var wres writerResult
	var werr error
	if wl.writerMix != nil {
		wg.Add(1)
		// The open-loop writer models an independent client with its own
		// schedule; it is load, not engine work, and is joined below.
		//geslint:go-ok benchmark load generator, joined before the pass returns
		go func() {
			defer wg.Done()
			wres, werr = runWriter(e, cfg, wl, start, stop)
		}()
	}

	for {
		now := time.Now()
		if cfg.ops > 0 {
			if res.ops >= cfg.ops {
				break
			}
		} else if !now.Before(deadline) {
			break
		}
		res.ref.tick(now)
		if res.ops%res.blockOps == 0 {
			res.marks = append(res.marks, markNow())
		}
		req := reader.next()
		d, derr := c.do("POST", req.path, req.body)
		if derr != nil {
			err = derr
			break
		}
		res.ops++
		res.busy += d.cpu
		res.seq = append(res.seq, opSample{req.class, int64(d.cpu)})
		res.lat[req.class] = append(res.lat[req.class], int64(d.wall))
		if d.wall > auditThreshold {
			res.delayed++
		}
		if !c.ok() {
			res.failed++
			continue
		}
		body := c.w.body.Bytes()
		if req.class == classIU {
			res.noteAck(req)
		}
		if hashing && len(res.rowHashes) < hashOps {
			res.rowHashes = append(res.rowHashes, hashRows(body))
		}
		if withOverhead {
			if ms, ok := durationMs(body); ok {
				res.overhead = append(res.overhead, int64(d.wall)-int64(ms*1e6))
			}
		}
	}
	res.end = markNow()
	close(stop)
	wg.Wait()
	runtime.ReadMemStats(&res.memAfter)
	if err == nil {
		err = werr
	}
	if err != nil {
		return nil, err
	}
	res.writer = wres
	res.ackedIU += wres.ackedIU
	res.acked = append(res.acked, wres.acked...)
	e.ackedIU += res.ackedIU
	if res.statsAfter, err = c.getStats(); err != nil {
		return nil, err
	}
	// Two collections: the engine's pools are sync.Pools, which give their
	// idle buffers up over two cycles. What remains is what the system holds.
	runtime.GC()
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	own := res.ref.heapBytes() + cap(res.seq)*int(unsafe.Sizeof(opSample{})) + 8*(cap(res.overhead)+cap(res.rowHashes))
	for _, l := range res.lat {
		own += 8 * cap(l)
	}
	res.heapLive = live.HeapAlloc - uint64(own)
	return res, nil
}

// acks records acknowledged updates: their count, which must equal the
// commit version, and the ones a later read can look for.
type acks struct {
	ackedIU int
	acked   []request // acknowledged IU6/IU7/IU8
}

func (a *acks) noteAck(req request) {
	a.ackedIU++
	switch req.name {
	case "IU6", "IU7", "IU8":
		a.acked = append(a.acked, req)
	}
}

// writerResult is what the open-loop writer measured.
type writerResult struct {
	lat    []int64 // completion − due time, ns
	late   []int64 // issue − due time, ns: how late the generator ran
	ops    int
	failed int
	acks
}

// runWriter issues IU requests on a fixed schedule until stop closes. Each
// is timed from the moment it was due, so a stall charges the requests
// queued behind it; how late the generator itself ran is recorded too.
func runWriter(e *env, cfg config, wl workload, start time.Time, stop <-chan struct{}) (res writerResult, err error) {
	c := newClient(e.mux)
	ws := wl.writer(e.ds, streamSeed(cfg.seed, streamWriter))
	interval := time.Duration(float64(time.Second) / wl.writeRate)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-stop:
				return res, nil
			case <-time.After(wait):
			}
		} else {
			select {
			case <-stop:
				return res, nil
			default:
			}
		}
		req := ws.next()
		issued := time.Now()
		if _, err := c.do("POST", req.path, req.body); err != nil {
			return res, err
		}
		res.ops++
		res.lat = append(res.lat, int64(time.Since(due)))
		res.late = append(res.late, int64(issued.Sub(due)))
		if !c.ok() {
			res.failed++
			continue
		}
		res.noteAck(req)
	}
}

var (
	statsKey    = []byte(`,"stats":`)
	durationKey = []byte(`"durationMs":`)
)

// hashRows is FNV-1a over a response's columns and rows.
func hashRows(body []byte) uint64 {
	h := fnv.New64a()
	h.Write(rowsPart(body))
	return h.Sum64()
}

// resultHash folds per-response hashes into the run's result_hash.
func resultHash(rows []uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, r := range rows {
		binary.LittleEndian.PutUint64(b[:], r)
		h.Write(b[:])
	}
	return h.Sum64()
}

// rowsPart returns the response up to its stats member — columns and rows,
// the part that must repeat exactly for the same request on the same data.
func rowsPart(body []byte) []byte {
	if i := bytes.LastIndex(body, statsKey); i >= 0 {
		return body[:i]
	}
	return body
}

// durationMs extracts stats.durationMs from a response without decoding it.
func durationMs(body []byte) (float64, bool) {
	i := bytes.LastIndex(body, durationKey)
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(durationKey):]
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(rest[:end]), 64)
	return f, err == nil
}
