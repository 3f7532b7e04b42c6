// The "parallel" experiment measures the morsel-driven runtime added on top
// of the paper's engine: intra-query scaling of the fused-predicate expansion
// and the service-side plan cache under concurrent clients. It also emits the
// machine-readable BENCH_parallel.json artifact when Config.JSONPath is set.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"ges/internal/catalog"
	"ges/internal/driver"
	"ges/internal/exec"
	"ges/internal/expr"
	"ges/internal/ldbc"
	"ges/internal/op"
	"ges/internal/plan"
	"ges/internal/service"
)

func init() {
	register(Experiment{"parallel", "Morsel runtime: fused-expand scaling and plan-cache hit rates", parallelExp})
}

// parallelWorkerSweep is the worker/client sweep shared by the experiment,
// the benchmarks, and the JSON artifact.
var parallelWorkerSweep = []int{1, 2, 4, 8}

// fusedParallelPlan is the canonical morsel-runtime workload: a full-scan
// two-hop expansion whose second hop carries a fused vertex predicate keeping
// roughly half the neighbors, followed by a parallel property gather and a
// parallel defactorization.
func fusedParallelPlan(ds *ldbc.Dataset) plan.Plan {
	h := ds.H
	mid := int64(ds.Stats().Persons / 2)
	return plan.Plan{
		&op.NodeScan{Var: "p", Label: h.Person},
		&op.Expand{From: "p", To: "f", Et: h.Knows, Dir: catalog.Out, DstLabel: h.Person},
		&op.Expand{From: "f", To: "g", Et: h.Knows, Dir: catalog.Out, DstLabel: h.Person,
			VertexPred: op.VertexPropPred(expr.Le(expr.C(op.ExtIDProp), expr.LInt(mid)))},
		&op.ProjectProps{Specs: []op.ProjSpec{{Var: "g", As: "g.id", ExtID: true}}},
		&op.Defactor{Cols: []string{"g.id"}},
	}
}

// parallelReport is the schema of BENCH_parallel.json.
type parallelReport struct {
	SimSF       float64            `json:"simSF"`
	Cores       int                `json:"cores"`
	ExpandFused []expandScalePoint `json:"expandFused"`
	PlanCache   planCacheReport    `json:"planCache"`
}

type expandScalePoint struct {
	Workers int     `json:"workers"`
	AvgMs   float64 `json:"avgMs"`
	Speedup float64 `json:"speedup"` // vs workers=1
}

type planCacheReport struct {
	Clients []cacheScalePoint `json:"clients"`
	Hits    uint64            `json:"hits"`
	Misses  uint64            `json:"misses"`
	HitRate float64           `json:"hitRate"`
}

type cacheScalePoint struct {
	Clients int     `json:"clients"`
	QPS     float64 `json:"qps"`
}

func parallelExp(w io.Writer, cfg Config) error {
	sf := cfg.SFs[len(cfg.SFs)-1]
	ds, err := driver.SharedDataset(sf)
	if err != nil {
		return err
	}
	report := parallelReport{SimSF: sf, Cores: runtime.NumCPU()}

	// --- intra-query scaling: fused-predicate expansion ---
	fmt.Fprintf(w, "fused-expand scaling, simSF=%.4g, %d runs per point, %d cores\n",
		sf, cfg.Runs, runtime.NumCPU())
	fmt.Fprintf(w, "%-9s %12s %9s\n", "workers", "avg(ms)", "speedup")
	var base time.Duration
	for _, n := range parallelWorkerSweep {
		eng := exec.New(exec.ModeFactorized)
		eng.Parallel = n
		// One warmup run outside the measurement.
		if _, err := eng.Run(ds.Graph, fusedParallelPlan(ds)); err != nil {
			return fmt.Errorf("workers=%d: %w", n, err)
		}
		var total time.Duration
		for r := 0; r < cfg.Runs; r++ {
			start := time.Now()
			if _, err := eng.Run(ds.Graph, fusedParallelPlan(ds)); err != nil {
				return fmt.Errorf("workers=%d: %w", n, err)
			}
			total += time.Since(start)
		}
		avg := total / time.Duration(cfg.Runs)
		if n == 1 {
			base = avg
		}
		fmt.Fprintf(w, "%-9d %12.3f %8.2fx\n", n, ms(avg), speedup(base, avg))
		report.ExpandFused = append(report.ExpandFused, expandScalePoint{
			Workers: n, AvgMs: ms(avg), Speedup: speedup(base, avg),
		})
	}

	// --- inter-query scaling: plan cache under concurrent clients ---
	srv := service.NewWith(ds, exec.ModeFused, service.Options{Parallel: 1})
	mux := srv.Mux()
	const body = `{"query":"MATCH (p:Person)-[:KNOWS]->(f) WHERE id(p) = 1 RETURN COUNT(*) AS friends"}`
	post := func() error {
		req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("POST /query: status %d: %s", rec.Code, rec.Body.String())
		}
		return nil
	}
	ops := cfg.MixOps
	if ops < 8 {
		ops = 8
	}
	fmt.Fprintf(w, "plan-cache service throughput, %d requests per point (one query text)\n", ops)
	fmt.Fprintf(w, "%-9s %12s\n", "clients", "req/s")
	for _, clients := range parallelWorkerSweep {
		var wg sync.WaitGroup
		errCh := make(chan error, clients)
		per := ops / clients
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			// Benchmark clients stand in for concurrent external callers
			// (Figure 13); they must not draw from the engine's pool.
			//geslint:go-ok
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					if err := post(); err != nil {
						errCh <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		close(errCh)
		if err := <-errCh; err != nil {
			return err
		}
		qps := float64(clients*per) / elapsed.Seconds()
		fmt.Fprintf(w, "%-9d %12.0f\n", clients, qps)
		report.PlanCache.Clients = append(report.PlanCache.Clients, cacheScalePoint{
			Clients: clients, QPS: qps,
		})
	}

	// Pull the lifetime counters straight from /stats so the artifact reflects
	// what an operator would see.
	statsReq := httptest.NewRequest(http.MethodGet, "/stats", nil)
	statsRec := httptest.NewRecorder()
	mux.ServeHTTP(statsRec, statsReq)
	var stats struct {
		PlanCache struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"planCache"`
	}
	if err := json.Unmarshal(statsRec.Body.Bytes(), &stats); err != nil {
		return fmt.Errorf("decode /stats: %w", err)
	}
	report.PlanCache.Hits = stats.PlanCache.Hits
	report.PlanCache.Misses = stats.PlanCache.Misses
	if total := stats.PlanCache.Hits + stats.PlanCache.Misses; total > 0 {
		report.PlanCache.HitRate = float64(stats.PlanCache.Hits) / float64(total)
	}
	fmt.Fprintf(w, "plan cache: %d hits / %d misses (%.1f%% hit rate)\n",
		report.PlanCache.Hits, report.PlanCache.Misses, 100*report.PlanCache.HitRate)

	if cfg.JSONPath != "" {
		raw, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.JSONPath, append(raw, '\n'), 0o644); err != nil {
			return fmt.Errorf("write %s: %w", cfg.JSONPath, err)
		}
		fmt.Fprintf(w, "wrote %s\n", cfg.JSONPath)
	}
	return nil
}
