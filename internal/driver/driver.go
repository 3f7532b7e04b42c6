// Package driver is the in-process stand-in for the LDBC SNB benchmark
// driver (§2.2): it draws queries from the frequency-weighted workload mix,
// fires them at the system under test from a configurable number of
// closed-loop workers, records per-query latencies and audit counters, and
// computes throughput — locally, without the network hop the paper also
// excludes from its execution analysis.
package driver

import (
	"math/rand"
	"sort"
	"sync"
	"time"

	"ges/internal/exec"
	"ges/internal/ldbc"
	"ges/internal/ldbc/queries"
)

// Recorder accumulates latencies per query, thread-safely.
type Recorder struct {
	mu     sync.Mutex
	byName map[string][]time.Duration
	kinds  map[queries.Kind]int
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		byName: make(map[string][]time.Duration),
		kinds:  make(map[queries.Kind]int),
	}
}

// Record logs one completed query.
func (r *Recorder) Record(name string, kind queries.Kind, d time.Duration) {
	r.mu.Lock()
	r.byName[name] = append(r.byName[name], d)
	r.kinds[kind]++
	r.mu.Unlock()
}

// Count returns the number of recorded completions for a query name.
func (r *Recorder) Count(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.byName[name])
}

// KindCount returns completions per workload class.
func (r *Recorder) KindCount(k queries.Kind) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.kinds[k]
}

// Avg returns the mean latency of a query.
func (r *Recorder) Avg(name string) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	ds := r.byName[name]
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// Total returns the summed latency of a query (Figure 2's "total time").
func (r *Recorder) Total(name string) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var sum time.Duration
	for _, d := range r.byName[name] {
		sum += d
	}
	return sum
}

// Percentile returns the p-quantile (0 < p <= 1) latency of a query.
func (r *Recorder) Percentile(name string, p float64) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	ds := append([]time.Duration(nil), r.byName[name]...)
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	idx := int(p*float64(len(ds))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(ds) {
		idx = len(ds) - 1
	}
	return ds[idx]
}

// Names returns the recorded query names, sorted.
func (r *Recorder) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.byName))
	for n := range r.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Mix draws queries according to their SNB-style relative frequencies.
type Mix struct {
	qs  []*queries.Query
	cum []int
	sum int
}

// NewMix builds a weighted mix over the given queries (all 29 when nil).
func NewMix(qs []*queries.Query) *Mix {
	if qs == nil {
		qs = queries.All()
	}
	m := &Mix{qs: qs}
	for _, q := range qs {
		m.sum += q.Freq
		m.cum = append(m.cum, m.sum)
	}
	return m
}

// Draw picks the next query.
func (m *Mix) Draw(rng *rand.Rand) *queries.Query {
	x := rng.Intn(m.sum)
	i := sort.SearchInts(m.cum, x+1)
	return m.qs[i]
}

// RunResult summarizes one benchmark run.
type RunResult struct {
	Total      int
	Failed     int
	Elapsed    time.Duration
	Throughput float64 // queries per second
	Recorder   *Recorder
	// Delayed counts queries slower than the audit threshold — the stand-in
	// for the benchmark's delayed-query (TCR validity) audit.
	Delayed        int
	AuditThreshold time.Duration
}

// Options configures a benchmark run.
type Options struct {
	Workers int
	Ops     int // total operations (closed loop)
	Seed    int64
	Audit   time.Duration // delayed-query threshold; 0 = 100ms
	Mix     *Mix          // nil = full 29-query mix
}

// Run fires Ops queries from Workers closed-loop workers against the
// runner and reports throughput and latency statistics.
func Run(r *queries.Runner, opts Options) RunResult {
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if opts.Audit == 0 {
		opts.Audit = 100 * time.Millisecond
	}
	mix := opts.Mix
	if mix == nil {
		mix = NewMix(nil)
	}
	rec := NewRecorder()
	var (
		mu      sync.Mutex
		delayed int
		failed  int
	)
	var remaining = int64(opts.Ops)
	var remMu sync.Mutex
	take := func() bool {
		remMu.Lock()
		defer remMu.Unlock()
		if remaining <= 0 {
			return false
		}
		remaining--
		return true
	}

	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(opts.Workers)
	for w := 0; w < opts.Workers; w++ {
		// Driver workers simulate independent clients, outside the engine's
		// scheduler budget by design.
		//geslint:go-ok
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opts.Seed + int64(w)*7919))
			pg := r.DS.NewParamGen(opts.Seed + int64(w)*104729)
			for take() {
				q := mix.Draw(rng)
				params := q.GenParams(r.DS, pg)
				t0 := time.Now()
				_, _, err := r.Execute(q, params)
				d := time.Since(t0)
				rec.Record(q.Name, q.Kind, d)
				mu.Lock()
				if err != nil {
					failed++
				}
				if d > opts.Audit {
					delayed++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	return RunResult{
		Total:          opts.Ops,
		Failed:         failed,
		Elapsed:        elapsed,
		Throughput:     float64(opts.Ops) / elapsed.Seconds(),
		Recorder:       rec,
		Delayed:        delayed,
		AuditThreshold: opts.Audit,
	}
}

// TracePoint is one bucket of the throughput trace (Figure 14).
type TracePoint struct {
	At      time.Duration
	IC      int
	IS      int
	IU      int
	Overall int
}

// RunTrace runs the mix for the given duration and returns the throughput
// trace in fixed buckets.
func RunTrace(r *queries.Runner, workers int, total time.Duration, bucket time.Duration, seed int64) []TracePoint {
	if workers < 1 {
		workers = 1
	}
	nBuckets := int(total / bucket)
	if nBuckets < 1 {
		nBuckets = 1
	}
	type cell struct{ ic, is, iu int }
	cells := make([]cell, nBuckets)
	var mu sync.Mutex
	mix := NewMix(nil)
	start := time.Now()
	deadline := start.Add(total)

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		// Mixed-workload clients model external load, not engine work.
		//geslint:go-ok
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*6151))
			pg := r.DS.NewParamGen(seed + int64(w)*92821)
			for time.Now().Before(deadline) {
				q := mix.Draw(rng)
				params := q.GenParams(r.DS, pg)
				if _, _, err := r.Execute(q, params); err != nil {
					continue
				}
				b := int(time.Since(start) / bucket)
				if b >= nBuckets {
					break
				}
				mu.Lock()
				switch q.Kind {
				case queries.IC:
					cells[b].ic++
				case queries.IS:
					cells[b].is++
				case queries.IU:
					cells[b].iu++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	out := make([]TracePoint, nBuckets)
	for i, c := range cells {
		out[i] = TracePoint{
			At:      time.Duration(i+1) * bucket,
			IC:      c.ic,
			IS:      c.is,
			IU:      c.iu,
			Overall: c.ic + c.is + c.iu,
		}
	}
	return out
}

// QueryStats summarizes repeated executions of one query (Figures 2/11/12,
// Table 2).
type QueryStats struct {
	Name   string
	Runs   int
	Avg    time.Duration
	Total  time.Duration
	P50    time.Duration
	P99    time.Duration
	P999   time.Duration
	AvgMem int
	MaxMem int
	ByOp   map[string]time.Duration
}

// MeasureQuery runs one query `runs` times with fresh parameters and
// returns aggregate statistics. collectStats additionally gathers the
// per-operator breakdown and peak-memory accounting.
func MeasureQuery(r *queries.Runner, q *queries.Query, runs int, seed int64, collectStats bool) (QueryStats, error) {
	pg := r.DS.NewParamGen(seed)
	rec := NewRecorder()
	stats := QueryStats{Name: q.Name, Runs: runs, ByOp: make(map[string]time.Duration)}
	if ge, ok := r.Engine.(*exec.Engine); ok {
		prev := ge.CollectStats
		ge.CollectStats = collectStats
		defer func() { ge.CollectStats = prev }()
	}

	var memSum int
	for i := 0; i < runs; i++ {
		params := q.GenParams(r.DS, pg)
		t0 := time.Now()
		_, res, err := r.Execute(q, params)
		if err != nil {
			return stats, err
		}
		d := time.Since(t0)
		rec.Record(q.Name, q.Kind, d)
		if res != nil {
			memSum += res.PeakMem
			if res.PeakMem > stats.MaxMem {
				stats.MaxMem = res.PeakMem
			}
			for _, os := range res.OpStats {
				stats.ByOp[os.Name] += os.Duration
			}
		}
	}
	stats.Avg = rec.Avg(q.Name)
	stats.Total = rec.Total(q.Name)
	stats.P50 = rec.Percentile(q.Name, 0.50)
	stats.P99 = rec.Percentile(q.Name, 0.99)
	stats.P999 = rec.Percentile(q.Name, 0.999)
	if runs > 0 {
		stats.AvgMem = memSum / runs
	}
	return stats, nil
}

// DatasetFor memoizes generated datasets per scale factor so benchmarks and
// experiments do not regenerate them repeatedly.
var (
	dsCacheMu sync.Mutex
	dsCache   = map[float64]*ldbc.Dataset{}
)

// SharedDataset returns a cached dataset for the scale factor (seed 1).
func SharedDataset(sf float64) (*ldbc.Dataset, error) {
	dsCacheMu.Lock()
	defer dsCacheMu.Unlock()
	if ds, ok := dsCache[sf]; ok {
		return ds, nil
	}
	ds, err := ldbc.Generate(ldbc.Config{SF: sf, Seed: 1})
	if err != nil {
		return nil, err
	}
	dsCache[sf] = ds
	return ds, nil
}
