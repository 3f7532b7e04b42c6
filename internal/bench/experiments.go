// Package bench implements the paper's evaluation section (§6): one
// experiment per table and figure, each regenerating the corresponding rows
// or series at simulated (laptop) scale, and nothing else — the
// morsel-runtime sweeps are the root bench_test.go's
// BenchmarkExpandFusedParallel and BenchmarkServicePlanCache. The
// experiments are shared by cmd/gesbench and the root bench_test.go;
// EXPERIMENTS.md records the paper-vs-measured comparison for each.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"ges/internal/driver"
	"ges/internal/exec"
	"ges/internal/ldbc"
	"ges/internal/ldbc/queries"
	"ges/internal/volcano"
)

// Config scales an experiment run.
type Config struct {
	// SFs are the simulated scale factors to sweep (largest last).
	SFs []float64
	// Runs is the number of parameter draws per query measurement.
	Runs int
	// MixOps is the number of operations per throughput run.
	MixOps int
	// Workers is the worker count for throughput runs.
	Workers int
	// TraceFor and TraceBucket size the Figure 14 trace.
	TraceFor    time.Duration
	TraceBucket time.Duration
	Seed        int64
}

// Quick returns a configuration sized for CI / `go test -bench`.
func Quick() Config {
	return Config{
		SFs:         []float64{0.03, 0.1},
		Runs:        10,
		MixOps:      400,
		Workers:     4,
		TraceFor:    2 * time.Second,
		TraceBucket: 200 * time.Millisecond,
		Seed:        1,
	}
}

// Full returns the configuration used for EXPERIMENTS.md (minutes-scale).
func Full() Config {
	return Config{
		SFs:         []float64{0.03, 0.1, 0.3, 1},
		Runs:        15,
		MixOps:      2000,
		Workers:     runtime.NumCPU(),
		TraceFor:    20 * time.Second,
		TraceBucket: 1 * time.Second,
		Seed:        1,
	}
}

// Modes are the paper's three engine variants, in ablation order.
var Modes = []exec.Mode{exec.ModeFlat, exec.ModeFactorized, exec.ModeFused}

// icNames returns IC1..IC14 in numeric order.
func icNames() []string {
	var names []string
	for _, q := range queries.OfKind(queries.IC) {
		names = append(names, q.Name)
	}
	sort.Slice(names, func(i, j int) bool {
		return icNum(names[i]) < icNum(names[j])
	})
	return names
}

// mustQuery resolves a registered query by name. Experiment tables iterate
// names that come from the registry itself (icNames and fixed IC subsets),
// so a lookup failure is a programming error, not a runtime condition.
func mustQuery(name string) *queries.Query {
	q, err := queries.ByName(name)
	if err != nil {
		panic(err)
	}
	return q
}

func icNum(name string) int {
	n := 0
	fmt.Sscanf(name, "IC%d", &n)
	return n
}

// Experiment is one reproducible table/figure.
type Experiment struct {
	ID    string // e.g. "table2", "fig11"
	Title string
	Run   func(w io.Writer, cfg Config) error
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every experiment in paper order.
func All() []Experiment { return registry }

// ByID resolves one experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}

func init() {
	register(Experiment{"table1", "Table 1: datasets and statistics", table1})
	register(Experiment{"fig2", "Figure 2: per-query execution analysis (flat engine)", fig2})
	register(Experiment{"fig3", "Figure 3: operator-level breakdown of long-running queries", fig3})
	register(Experiment{"fig11", "Figure 11: average latency, GES vs GES_f vs GES_f*", fig11})
	register(Experiment{"fig12", "Figure 12: tail latency on the largest graph", fig12})
	register(Experiment{"table2", "Table 2: peak intermediate-result memory and reduction ratio", table2})
	register(Experiment{"table3", "Table 3: throughput of the three variants", table3})
	register(Experiment{"fig13", "Figure 13: scalability with worker count", fig13})
	register(Experiment{"fig14", "Figure 14: throughput trace over a full run", fig14})
	register(Experiment{"fig15", "Figure 15: per-query latency across engine architectures", fig15})
	register(Experiment{"table4", "Table 4: cross-architecture throughput", table4})
}

func table1(w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "simSF      persons   vertices   edges        size")
	for _, sf := range cfg.SFs {
		ds, err := driver.SharedDataset(sf)
		if err != nil {
			return err
		}
		s := ds.Stats()
		fmt.Fprintf(w, "%-10.4g %-9d %-10d %-12d %s\n", s.SF, s.Persons, s.Vertices, s.Edges, ldbc.FmtBytes(s.Bytes))
	}
	return nil
}

func fig2(w io.Writer, cfg Config) error {
	sf := cfg.SFs[len(cfg.SFs)-1]
	ds, err := driver.SharedDataset(sf)
	if err != nil {
		return err
	}
	r := queries.NewRunner(ds, exec.ModeFlat, nil)
	fmt.Fprintf(w, "flat GES engine, simSF=%.4g, %d runs per query, single worker\n", sf, cfg.Runs)
	fmt.Fprintln(w, "query   total(ms)    avg(ms)")
	for _, name := range icNames() {
		q := mustQuery(name)
		st, err := driver.MeasureQuery(r, q, cfg.Runs, cfg.Seed, false)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(w, "%-7s %-12.2f %-10.3f\n", name, ms(st.Total), ms(st.Avg))
	}
	return nil
}

func fig3(w io.Writer, cfg Config) error {
	sf := cfg.SFs[len(cfg.SFs)-1]
	ds, err := driver.SharedDataset(sf)
	if err != nil {
		return err
	}
	r := queries.NewRunner(ds, exec.ModeFlat, nil)
	fmt.Fprintf(w, "operator breakdown of long-running queries, flat engine, simSF=%.4g\n", sf)
	for _, name := range []string{"IC5", "IC6", "IC9", "IC12"} {
		q := mustQuery(name)
		st, err := driver.MeasureQuery(r, q, cfg.Runs, cfg.Seed, true)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		var total time.Duration
		for _, d := range st.ByOp {
			total += d
		}
		type pair struct {
			name string
			d    time.Duration
		}
		var ps []pair
		for n, d := range st.ByOp {
			ps = append(ps, pair{n, d})
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i].d > ps[j].d })
		fmt.Fprintf(w, "%s (total %0.2fms):\n", name, ms(total))
		for _, p := range ps {
			fmt.Fprintf(w, "    %-24s %6.1f%%  %0.3fms\n", p.name, pct(p.d, total), ms(p.d))
		}
	}
	return nil
}

func fig11(w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "average latency (ms) per IC query and engine variant")
	for _, sf := range cfg.SFs {
		ds, err := driver.SharedDataset(sf)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "--- simSF=%.4g ---\n", sf)
		fmt.Fprintf(w, "%-7s %12s %12s %12s %9s %9s\n", "query", "GES", "GES_f", "GES_f*", "f-spdup", "f*-spdup")
		for _, name := range icNames() {
			q := mustQuery(name)
			var avg [3]time.Duration
			for mi, mode := range Modes {
				r := queries.NewRunner(ds, mode, nil)
				st, err := driver.MeasureQuery(r, q, cfg.Runs, cfg.Seed, false)
				if err != nil {
					return fmt.Errorf("%s %s: %w", name, mode, err)
				}
				avg[mi] = st.Avg
			}
			fmt.Fprintf(w, "%-7s %12.3f %12.3f %12.3f %8.1fx %8.1fx\n",
				name, ms(avg[0]), ms(avg[1]), ms(avg[2]),
				speedup(avg[0], avg[1]), speedup(avg[0], avg[2]))
		}
	}
	return nil
}

func fig12(w io.Writer, cfg Config) error {
	sf := cfg.SFs[len(cfg.SFs)-1]
	ds, err := driver.SharedDataset(sf)
	if err != nil {
		return err
	}
	runs := cfg.Runs * 10 // percentiles need samples
	fmt.Fprintf(w, "tail latency (ms), simSF=%.4g, %d samples per query\n", sf, runs)
	fmt.Fprintf(w, "%-7s %-8s %12s %12s %12s\n", "query", "pct", "GES", "GES_f", "GES_f*")
	for _, name := range icNames() {
		q := mustQuery(name)
		var p99, p999 [3]time.Duration
		for mi, mode := range Modes {
			r := queries.NewRunner(ds, mode, nil)
			st, err := driver.MeasureQuery(r, q, runs, cfg.Seed, false)
			if err != nil {
				return err
			}
			p99[mi], p999[mi] = st.P99, st.P999
		}
		fmt.Fprintf(w, "%-7s %-8s %12.3f %12.3f %12.3f\n", name, "p99", ms(p99[0]), ms(p99[1]), ms(p99[2]))
		fmt.Fprintf(w, "%-7s %-8s %12.3f %12.3f %12.3f\n", "", "p99.9", ms(p999[0]), ms(p999[1]), ms(p999[2]))
	}
	return nil
}

func table2(w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "peak intermediate-result memory per query (avg over runs); R.R. = reduction of GES_f* vs GES")
	for _, sf := range cfg.SFs {
		ds, err := driver.SharedDataset(sf)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "--- simSF=%.4g ---\n", sf)
		fmt.Fprintf(w, "%-7s %12s %12s %12s %8s\n", "query", "GES", "GES_f", "GES_f*", "R.R.")
		for _, name := range icNames() {
			q := mustQuery(name)
			var mem [3]int
			for mi, mode := range Modes {
				r := queries.NewRunner(ds, mode, nil)
				st, err := driver.MeasureQuery(r, q, cfg.Runs, cfg.Seed, false)
				if err != nil {
					return err
				}
				mem[mi] = st.AvgMem
			}
			rr := 0.0
			if mem[0] > 0 {
				rr = 100 * float64(mem[0]-mem[2]) / float64(mem[0])
			}
			fmt.Fprintf(w, "%-7s %12s %12s %12s %7.1f%%\n",
				name, ldbc.FmtBytes(mem[0]), ldbc.FmtBytes(mem[1]), ldbc.FmtBytes(mem[2]), rr)
		}
	}
	return nil
}

func table3(w io.Writer, cfg Config) error {
	fmt.Fprintf(w, "mix throughput (queries/s), %d ops, %d workers\n", cfg.MixOps, cfg.Workers)
	fmt.Fprintf(w, "%-8s %12s %16s %16s\n", "simSF", "GES", "GES_f", "GES_f*")
	for _, sf := range cfg.SFs {
		ds, err := driver.SharedDataset(sf)
		if err != nil {
			return err
		}
		var tp [3]float64
		for mi, mode := range Modes {
			r := queries.NewRunner(ds, mode, nil)
			res := driver.Run(r, driver.Options{Workers: cfg.Workers, Ops: cfg.MixOps, Seed: cfg.Seed})
			if res.Failed > 0 {
				return fmt.Errorf("table3: %d failed queries in %s", res.Failed, mode)
			}
			tp[mi] = res.Throughput
		}
		fmt.Fprintf(w, "%-8.4g %12.0f %9.0f (%3.1fx) %9.0f (%3.1fx)\n",
			sf, tp[0], tp[1], tp[1]/tp[0], tp[2], tp[2]/tp[0])
	}
	return nil
}

func fig13(w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "GES_f* mix throughput (queries/s) vs workers")
	// Sweep past the configured worker count so the shape is visible even
	// on small hosts (on a single-core machine the curve flattens at one
	// worker — an honest environment artifact recorded in EXPERIMENTS.md).
	maxWorkers := cfg.Workers
	if maxWorkers < 8 {
		maxWorkers = 8
	}
	var workerSweep []int
	for n := 1; n <= maxWorkers; n *= 2 {
		workerSweep = append(workerSweep, n)
	}
	header := fmt.Sprintf("%-8s", "simSF")
	for _, n := range workerSweep {
		header += fmt.Sprintf(" %9dw", n)
	}
	fmt.Fprintln(w, header)
	for _, sf := range cfg.SFs {
		ds, err := driver.SharedDataset(sf)
		if err != nil {
			return err
		}
		line := fmt.Sprintf("%-8.4g", sf)
		for _, n := range workerSweep {
			r := queries.NewRunner(ds, exec.ModeFused, nil)
			res := driver.Run(r, driver.Options{Workers: n, Ops: cfg.MixOps, Seed: cfg.Seed})
			if res.Failed > 0 {
				return fmt.Errorf("fig13: %d failed queries at %d workers", res.Failed, n)
			}
			line += fmt.Sprintf(" %10.0f", res.Throughput)
		}
		fmt.Fprintln(w, line)
	}
	return nil
}

func fig14(w io.Writer, cfg Config) error {
	sf := cfg.SFs[len(cfg.SFs)-1]
	ds, err := driver.SharedDataset(sf)
	if err != nil {
		return err
	}
	r := queries.NewRunner(ds, exec.ModeFused, nil)
	fmt.Fprintf(w, "GES_f* throughput trace, simSF=%.4g, %d workers, %v buckets\n",
		sf, cfg.Workers, cfg.TraceBucket)
	fmt.Fprintf(w, "%-10s %8s %8s %8s %8s\n", "t", "IC/s", "IS/s", "IU/s", "all/s")
	trace := driver.RunTrace(r, cfg.Workers, cfg.TraceFor, cfg.TraceBucket, cfg.Seed)
	perSec := 1 / cfg.TraceBucket.Seconds()
	for _, p := range trace {
		fmt.Fprintf(w, "%-10v %8.0f %8.0f %8.0f %8.0f\n",
			p.At, float64(p.IC)*perSec, float64(p.IS)*perSec, float64(p.IU)*perSec, float64(p.Overall)*perSec)
	}
	return nil
}

// crossEngines builds the engine lineup for the cross-architecture
// experiments: volcano (tuple-at-a-time iterator, Neo4j-style) plus the
// three GES variants (GES flat also stands in for block-based relational
// engines — see DESIGN.md §3).
func crossEngines(ds *ldbc.Dataset) map[string]*queries.Runner {
	return map[string]*queries.Runner{
		"volcano": queries.NewRunnerWith(ds, volcano.New(), nil),
		"GES":     queries.NewRunner(ds, exec.ModeFlat, nil),
		"GES_f":   queries.NewRunner(ds, exec.ModeFactorized, nil),
		"GES_f*":  queries.NewRunner(ds, exec.ModeFused, nil),
	}
}

var crossOrder = []string{"volcano", "GES", "GES_f", "GES_f*"}

func fig15(w io.Writer, cfg Config) error {
	for _, sf := range cfg.SFs {
		ds, err := driver.SharedDataset(sf)
		if err != nil {
			return err
		}
		engines := crossEngines(ds)
		fmt.Fprintf(w, "--- average latency (ms), simSF=%.4g ---\n", sf)
		fmt.Fprintf(w, "%-7s %12s %12s %12s %12s\n", "query", crossOrder[0], crossOrder[1], crossOrder[2], crossOrder[3])
		var names []string
		names = append(names, icNames()...)
		for _, q := range queries.OfKind(queries.IS) {
			names = append(names, q.Name)
		}
		for _, name := range names {
			q := mustQuery(name)
			line := fmt.Sprintf("%-7s", name)
			for _, eng := range crossOrder {
				st, err := driver.MeasureQuery(engines[eng], q, cfg.Runs, cfg.Seed, false)
				if err != nil {
					return fmt.Errorf("%s on %s: %w", name, eng, err)
				}
				line += fmt.Sprintf(" %12.3f", ms(st.Avg))
			}
			fmt.Fprintln(w, line)
		}
	}
	return nil
}

func table4(w io.Writer, cfg Config) error {
	fmt.Fprintf(w, "mix throughput (queries/s) across architectures, %d ops, %d workers\n", cfg.MixOps, cfg.Workers)
	header := fmt.Sprintf("%-8s", "simSF")
	for _, eng := range crossOrder {
		header += fmt.Sprintf(" %12s", eng)
	}
	fmt.Fprintln(w, header)
	for _, sf := range cfg.SFs {
		ds, err := driver.SharedDataset(sf)
		if err != nil {
			return err
		}
		engines := crossEngines(ds)
		line := fmt.Sprintf("%-8.4g", sf)
		for _, eng := range crossOrder {
			res := driver.Run(engines[eng], driver.Options{Workers: cfg.Workers, Ops: cfg.MixOps, Seed: cfg.Seed})
			if res.Failed > 0 {
				return fmt.Errorf("table4: %d failures on %s", res.Failed, eng)
			}
			line += fmt.Sprintf(" %12.0f", res.Throughput)
		}
		fmt.Fprintln(w, line)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func pct(part, whole time.Duration) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

func speedup(base, improved time.Duration) float64 {
	if improved == 0 {
		return 0
	}
	return float64(base) / float64(improved)
}
