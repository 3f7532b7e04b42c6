// Benchmarks regenerating every table and figure of the paper's evaluation
// (§6) at CI scale, plus micro-benchmarks for the design choices DESIGN.md
// calls out: the paper's own ablation (factorized vs flat vs fused) and one
// benchmark per read path.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks print their table once (on the first iteration)
// and then time the full experiment; the minutes-scale configurations used
// for EXPERIMENTS.md run through cmd/gesbench instead.
package ges_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ges/internal/bench"
	"ges/internal/catalog"
	"ges/internal/driver"
	"ges/internal/exec"
	"ges/internal/ldbc"
	"ges/internal/ldbc/queries"
	"ges/internal/op"
	"ges/internal/plan"
	"ges/internal/service"
	"ges/internal/storage"
	"ges/internal/txn"
	"ges/internal/vector"
)

// benchExperiment runs one paper experiment per iteration; the first
// iteration echoes the produced table to stdout so `go test -bench` output
// doubles as a mini-report.
func benchExperiment(b *testing.B, id string) {
	e, err := bench.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := bench.Quick()
	// Warm the dataset cache outside the timer.
	for _, sf := range cfg.SFs {
		if _, err := driver.SharedDataset(sf); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := io.Discard
		if i == 0 {
			w = os.Stdout
		}
		if err := e.Run(w, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_DatasetStats(b *testing.B)          { benchExperiment(b, "table1") }
func BenchmarkFigure2_ExecutionAnalysis(b *testing.B)    { benchExperiment(b, "fig2") }
func BenchmarkFigure3_OperatorBreakdown(b *testing.B)    { benchExperiment(b, "fig3") }
func BenchmarkFigure11_LatencyByVariant(b *testing.B)    { benchExperiment(b, "fig11") }
func BenchmarkFigure12_TailLatency(b *testing.B)         { benchExperiment(b, "fig12") }
func BenchmarkTable2_IntermediateMemory(b *testing.B)    { benchExperiment(b, "table2") }
func BenchmarkTable3_VariantThroughput(b *testing.B)     { benchExperiment(b, "table3") }
func BenchmarkFigure13_Scalability(b *testing.B)         { benchExperiment(b, "fig13") }
func BenchmarkFigure14_ThroughputTrace(b *testing.B)     { benchExperiment(b, "fig14") }
func BenchmarkFigure15_CrossSystem(b *testing.B)         { benchExperiment(b, "fig15") }
func BenchmarkTable4_CrossSystemThroughput(b *testing.B) { benchExperiment(b, "table4") }

// ---------------------------------------------------------------------------
// Per-query engine benchmarks (the units behind Figures 2/11).
// ---------------------------------------------------------------------------

var benchDS = struct {
	once sync.Once
	ds   *ldbc.Dataset
}{}

func dataset(b *testing.B) *ldbc.Dataset {
	benchDS.once.Do(func() {
		ds, err := ldbc.Generate(ldbc.Config{SF: 0.1, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		benchDS.ds = ds
	})
	return benchDS.ds
}

func benchQuery(b *testing.B, name string, mode exec.Mode) {
	ds := dataset(b)
	r := queries.NewRunner(ds, mode, nil)
	q, err := queries.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	pg := ds.NewParamGen(1)
	params := q.GenParams(ds, pg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := r.Execute(q, params); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIC2_Flat(b *testing.B)          { benchQuery(b, "IC2", exec.ModeFlat) }
func BenchmarkIC2_Factorized(b *testing.B)    { benchQuery(b, "IC2", exec.ModeFactorized) }
func BenchmarkIC2_Fused(b *testing.B)         { benchQuery(b, "IC2", exec.ModeFused) }
func BenchmarkIC3_Factorized(b *testing.B)    { benchQuery(b, "IC3", exec.ModeFactorized) }
func BenchmarkIC3_Fused(b *testing.B)         { benchQuery(b, "IC3", exec.ModeFused) }
func BenchmarkIC4_Fused(b *testing.B)         { benchQuery(b, "IC4", exec.ModeFused) }
func BenchmarkIC5_Flat(b *testing.B)          { benchQuery(b, "IC5", exec.ModeFlat) }
func BenchmarkIC5_Factorized(b *testing.B)    { benchQuery(b, "IC5", exec.ModeFactorized) }
func BenchmarkIC5_Fused(b *testing.B)         { benchQuery(b, "IC5", exec.ModeFused) }
func BenchmarkIC6_Factorized(b *testing.B)    { benchQuery(b, "IC6", exec.ModeFactorized) }
func BenchmarkIC6_Fused(b *testing.B)         { benchQuery(b, "IC6", exec.ModeFused) }
func BenchmarkIC9_Flat(b *testing.B)          { benchQuery(b, "IC9", exec.ModeFlat) }
func BenchmarkIC9_Factorized(b *testing.B)    { benchQuery(b, "IC9", exec.ModeFactorized) }
func BenchmarkIC9_Fused(b *testing.B)         { benchQuery(b, "IC9", exec.ModeFused) }
func BenchmarkIC10_Fused(b *testing.B)        { benchQuery(b, "IC10", exec.ModeFused) }
func BenchmarkIC11_Factorized(b *testing.B)   { benchQuery(b, "IC11", exec.ModeFactorized) }
func BenchmarkIC11_Fused(b *testing.B)        { benchQuery(b, "IC11", exec.ModeFused) }
func BenchmarkIC14(b *testing.B)              { benchQuery(b, "IC14", exec.ModeFused) }
func BenchmarkIS2_Fused(b *testing.B)         { benchQuery(b, "IS2", exec.ModeFused) }
func BenchmarkIC13_ShortestPath(b *testing.B) { benchQuery(b, "IC13", exec.ModeFused) }

// threeHopPlan expands a person's friends, their friends and those
// friends' messages, with no predicate or edge property: every hop copies
// its neighbour pieces whole into the new node's VID column.
func threeHopPlan(h *ldbc.Handles, personExt int64) plan.Plan {
	return plan.Plan{
		&op.NodeByIdSeek{Var: "p", Label: h.Person, ExtID: personExt},
		&op.Expand{From: "p", To: "f", Et: h.Knows, Dir: catalog.Out, DstLabel: h.Person},
		&op.Expand{From: "f", To: "g", Et: h.Knows, Dir: catalog.Out, DstLabel: h.Person},
		&op.Expand{From: "g", To: "msg", Et: h.HasCreator, Dir: catalog.In, DstLabel: storage.AnyLabel},
		&op.Limit{N: 1}, // constant-delay early exit keeps the tree cost dominant
	}
}

// BenchmarkExpandThreeHop shows the cost of copying expand output: three
// plain hops build the whole f-Tree before Limit reads one tuple.
func BenchmarkExpandThreeHop(b *testing.B) {
	ds := dataset(b)
	eng := exec.New(exec.ModeFactorized)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(ds.Graph, threeHopPlan(ds.H, int64(i%len(ds.Persons))+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Read-path micro-benchmarks (the CI bench smoke): one benchmark per path,
// each on the engine's only configuration. Per-layer numbers under real
// traffic are the repository benchmark's (benchmark/).
// ---------------------------------------------------------------------------

// benchPlan times one pure-configuration plan, built once outside the timer,
// on the factorized engine.
func benchPlan(b *testing.B, ds *ldbc.Dataset, p plan.Plan) {
	eng := exec.New(exec.ModeFactorized)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(ds.Graph, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGatherScan is the vectorized property read path (§5): shared
// columns, dictionary-code string equality and a date range through the
// 64-row range kernel over the comment table.
func BenchmarkGatherScan(b *testing.B) {
	ds := dataset(b)
	benchPlan(b, ds, bench.GatherScanPlan(ds))
}

// BenchmarkCSRExpand is the two-hop expansion through the batched adjacency
// kernel (one NeighborsBatch per hop over the sealed CSR).
func BenchmarkCSRExpand(b *testing.B) {
	ds := dataset(b)
	benchPlan(b, ds, bench.CSRExpandPlan(ds))
}

// BenchmarkCSRTriangle is the cyclic join closed in place by ExpandInto over
// sorted CSR runs.
func BenchmarkCSRTriangle(b *testing.B) {
	ds := dataset(b)
	benchPlan(b, ds, bench.CSRTrianglePlan(ds))
}

// BenchmarkWCOJ is the multiway intersection on each cyclic pattern.
func BenchmarkWCOJ(b *testing.B) {
	ds := dataset(b)
	for _, pat := range bench.WCOJPatterns {
		b.Run(pat.Name, func(b *testing.B) { benchPlan(b, ds, pat.Build(ds)) })
	}
}

// BenchmarkOverlayExpand measures the merged read path under a live delta
// overlay: the full-person batched KNOWS expansion on a clean sealed image,
// then with ~5% of the edge set committed into per-image deltas, one commit
// version per edge, then again after the quiesced reseal drains them. The delta
// point is the steady-state cost readers pay between background reseals. Uses
// a private dataset — the deltas must not leak into the shared one.
func BenchmarkOverlayExpand(b *testing.B) {
	ds, err := ldbc.Generate(ldbc.Config{SF: 0.1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	g, h := ds.Graph, ds.H
	expand := func(b *testing.B) {
		var bt storage.Batch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.NeighborsBatch(ds.Persons, h.Knows, catalog.Out, h.Person, false, &bt)
		}
	}
	b.Run("sealed", expand)
	// Never reseal mid-benchmark: the overlay point must keep its delta.
	g.SetResealPolicy(1e9, 1<<30)
	n := g.NumEdges() / 20
	for i := 0; i < n; i++ {
		src := ds.Persons[i%len(ds.Persons)]
		dst := ds.Persons[(i*7+1)%len(ds.Persons)]
		if err := g.CommitEdge(uint64(1+i), h.Knows, src, dst, vector.Date(int64(src)*31+int64(dst))); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("overlay", expand)
	g.SealCSR()
	b.Run("resealed", expand)
}

// BenchmarkSnapshotExpand prices one batched neighbor read, in ns per edge
// returned, on every shape a request can take: one family of a sealed image,
// AnyLabel fan-out over two families and sources of two labels (several
// images, still viewed in place), and a transaction snapshot whose committed
// overlays miss the request's sources (every run a view) or touch one source
// in eight (that run merged, the others views).
func BenchmarkSnapshotExpand(b *testing.B) {
	ds, err := ldbc.Generate(ldbc.Config{SF: 0.1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	g, h := ds.Graph, ds.H
	expand := func(v storage.View, srcs []vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dst catalog.LabelID) func(*testing.B) {
		return func(b *testing.B) {
			var bt storage.Batch
			v.NeighborsBatch(srcs, et, dir, dst, false, &bt)
			edges := 0
			for i := range bt.Runs {
				edges += bt.RunLen(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.NeighborsBatch(srcs, et, dir, dst, false, &bt)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*edges), "ns/edge")
		}
	}
	msgs := append(append([]vector.VID(nil), ds.Posts...), ds.Comments...)
	b.Run("sealed", expand(g, ds.Persons, h.Knows, catalog.Out, h.Person))
	b.Run("anylabel", expand(g, ds.Persons, h.HasCreator, catalog.In, storage.AnyLabel))
	b.Run("mixed-labels", expand(g, msgs, h.IsLocatedIn, catalog.Out, h.Country))

	// Overlays on the second half of the persons only, then on every eighth
	// person of the first half.
	mgr := txn.NewManager(g)
	half := ds.Persons[:len(ds.Persons)/2]
	befriend := func(a, c vector.VID) {
		tx := mgr.Begin([]vector.VID{a, c})
		if err := tx.AddEdge(h.Knows, a, c, vector.Date(20000)); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	rest := ds.Persons[len(half):]
	for i := 0; i+1 < len(rest); i += 2 {
		befriend(rest[i], rest[i+1])
	}
	b.Run("snapshot-untouched", expand(mgr.Snapshot(), half, h.Knows, catalog.Out, h.Person))
	for i := 0; i < len(half); i += 8 {
		befriend(half[i], rest[i%len(rest)])
	}
	b.Run("snapshot-touched", expand(mgr.Snapshot(), half, h.Knows, catalog.Out, h.Person))
}

// ---------------------------------------------------------------------------
// Service benchmarks.
// ---------------------------------------------------------------------------

// BenchmarkServicePlanCache drives POST /query through the service mux with
// 1/2/4/8 concurrent clients repeating one query text, so every request
// after the first hits the compiled-plan cache.
func BenchmarkServicePlanCache(b *testing.B) {
	ds := dataset(b)
	srv := service.NewWith(ds, exec.ModeFused, service.Options{})
	mux := srv.Mux()
	const body = `{"query":"MATCH (p:Person)-[:KNOWS]->(f) WHERE id(p) = 1 RETURN COUNT(*) AS friends"}`
	for _, clients := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			var failed atomic.Bool
			per, extra := b.N/clients, b.N%clients
			for c := 0; c < clients; c++ {
				n := per
				if c < extra {
					n++
				}
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
						rec := httptest.NewRecorder()
						mux.ServeHTTP(rec, req)
						if rec.Code != http.StatusOK {
							failed.Store(true)
							return
						}
					}
				}(n)
			}
			wg.Wait()
			b.StopTimer()
			if failed.Load() {
				b.Fatal("non-200 response from POST /query")
			}
		})
	}
}

// BenchmarkServiceQuery serves POST /query through the service mux: the
// cypher_adhoc workload's fat projection (a LIMIT without ORDER BY, enumerated
// straight into the response encoder) and a COUNT(*) over two hops (folded on
// the f-Tree, never enumerated).
func BenchmarkServiceQuery(b *testing.B) {
	mux := service.NewWith(dataset(b), exec.ModeFused, service.Options{}).Mux()
	for _, c := range []struct{ name, ret string }{
		{"fat", "id(f) AS f, id(g) AS g, g.firstName AS firstName, g.lastName AS lastName, g.locationIP AS ip, g.browserUsed AS browser LIMIT 600"},
		{"count", "COUNT(*) AS n"},
	} {
		body := `{"query":"MATCH (p:Person)-[:KNOWS]->(f:Person)-[:KNOWS]->(g:Person) WHERE id(p) = 3 RETURN ` + c.ret + `"}`
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("POST /query %s: status %d: %s", body, rec.Code, rec.Body)
				}
			}
		})
	}
}

// BenchmarkServiceLDBC serves POST /ldbc short reads through the service mux:
// a profile (IS1, one vertex's properties), the ten newest messages (IS2, an
// ORDER BY LIMIT over one f-Tree node) and all friends by date (IS3, a full
// ORDER BY). At this size what a request costs beyond its rows — decoding,
// binding, plan building, ordering — is most of its time.
func BenchmarkServiceLDBC(b *testing.B) {
	mux := service.NewWith(dataset(b), exec.ModeFused, service.Options{}).Mux()
	for _, name := range []string{"IS1", "IS2", "IS3"} {
		body := `{"name":"` + name + `","params":{"personId":3}}`
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ldbc", strings.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("POST /ldbc %s: status %d: %s", body, rec.Code, rec.Body)
				}
			}
		})
	}
}

// BenchmarkISAfterIC serves IS1 through the service mux at simSF 1 on a
// server that has served nothing else (fresh) and on one that has just served
// one IC5 (after). The two must cost the same: what an IC left in the
// recycled columns and buffers is not the next request's bill.
func BenchmarkISAfterIC(b *testing.B) {
	ds, err := ldbc.Generate(ldbc.Config{SF: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	serve := func(b *testing.B, mux http.Handler, body string) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ldbc", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("POST /ldbc %s: status %d: %s", body, rec.Code, rec.Body)
		}
	}
	for _, c := range []struct{ name, before string }{
		{"fresh", ""},
		{"after", `{"name":"IC5","params":{"personId":1,"minDate":0}}`},
	} {
		b.Run(c.name, func(b *testing.B) {
			mux := service.NewWith(ds, exec.ModeFused, service.Options{}).Mux()
			if c.before != "" {
				serve(b, mux, c.before)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve(b, mux, `{"name":"IS1","params":{"personId":1}}`)
			}
		})
	}
}

// BenchmarkGenerate builds the LDBC dataset at simSF 1 and 3; the time per
// operation must grow with the scale, not with its square.
func BenchmarkGenerate(b *testing.B) {
	for _, sf := range []float64{1, 3} {
		b.Run(fmt.Sprintf("simSF=%v", sf), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ldbc.Generate(ldbc.Config{SF: sf, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_MV2PLOverhead compares reads on the raw base graph with
// reads through a snapshot carrying committed overlays.
func BenchmarkAblation_MV2PLOverhead(b *testing.B) {
	ds := dataset(b)
	q, _ := queries.ByName("IS3")
	pg := ds.NewParamGen(1)
	params := q.GenParams(ds, pg)

	b.Run("base", func(b *testing.B) {
		r := queries.NewRunner(ds, exec.ModeFused, nil)
		for i := 0; i < b.N; i++ {
			if _, _, err := r.Execute(q, params); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("snapshot", func(b *testing.B) {
		mgr := txn.NewManager(ds.Graph)
		r := queries.NewRunnerWith(ds, exec.New(exec.ModeFused), mgr)
		// Commit a write so reads must consult overlays.
		iu8, _ := queries.ByName("IU8")
		if err := iu8.Update(mgr, ds, iu8.GenParams(ds, ds.NewParamGen(2))); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := r.Execute(q, params); err != nil {
				b.Fatal(err)
			}
		}
	})
}
