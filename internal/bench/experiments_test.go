package bench_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"ges/internal/bench"
	"ges/internal/driver"
	"ges/internal/exec"
	"ges/internal/ldbc/queries"
	"ges/internal/storage"
)

// tinyConfig keeps the smoke test fast.
func tinyConfig() bench.Config {
	return bench.Config{
		SFs:         []float64{0.03},
		Runs:        3,
		MixOps:      60,
		Workers:     2,
		TraceFor:    300 * time.Millisecond,
		TraceBucket: 100 * time.Millisecond,
		Seed:        1,
	}
}

// TestEveryExperimentRuns executes the eleven table/figure reproductions
// plus the morsel-runtime and sustained-update experiments at tiny scale and
// sanity-checks their output shape.
func TestEveryExperimentRuns(t *testing.T) {
	wantFragments := map[string]string{
		"table1":   "persons",
		"fig2":     "IC14",
		"fig3":     "Expand",
		"fig11":    "GES_f*",
		"fig12":    "p99.9",
		"table2":   "R.R.",
		"table3":   "GES_f",
		"fig13":    "workers",
		"fig14":    "IC/s",
		"fig15":    "volcano",
		"table4":   "volcano",
		"parallel": "hit rate",
		"update":   "reseals:",
	}
	if len(bench.All()) != len(wantFragments) {
		t.Fatalf("registry has %d experiments, want %d (one per table/figure + parallel + update)",
			len(bench.All()), len(wantFragments))
	}
	for _, e := range bench.All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, tinyConfig()); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			out := buf.String()
			if out == "" {
				t.Fatalf("%s produced no output", e.ID)
			}
			if frag := wantFragments[e.ID]; !strings.Contains(out, frag) {
				t.Fatalf("%s output missing %q:\n%s", e.ID, frag, out)
			}
		})
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := bench.ByID("fig99"); err == nil {
		t.Fatal("unknown experiment must fail")
	}
}

// TestFig3ExpandDominates checks the paper's §3.1 claim at reproduction
// scale on what repeats exactly: the bytes each operator of the flat engine
// materializes (OpStat.MemBytes), not a rank of wall-clock shares — the
// fig3 table itself is exercised by TestEveryExperimentRuns. Tuple
// materialization dominates the flat engine when the expansion operators
// plus the projections that replicate fetched properties through the flat
// table produce most of IC9's intermediate bytes, and its largest
// intermediate comes out of one of them.
func TestFig3ExpandDominates(t *testing.T) {
	ds, err := driver.SharedDataset(0.3)
	if err != nil {
		t.Fatal(err)
	}
	r := queries.NewRunnerWith(ds, &exec.Engine{Mode: exec.ModeFlat, Pool: storage.NewPool(), CollectStats: true}, nil)
	q, err := queries.ByName("IC9")
	if err != nil {
		t.Fatal(err)
	}
	_, res, err := r.Execute(q, q.GenParams(ds, ds.NewParamGen(1)))
	if err != nil {
		t.Fatal(err)
	}
	var total, materializing int
	var largest exec.OpStat
	for _, s := range res.OpStats {
		total += s.MemBytes
		if strings.Contains(s.Name, "Expand") || strings.Contains(s.Name, "Project") {
			materializing += s.MemBytes
		}
		if s.MemBytes > largest.MemBytes {
			largest = s
		}
	}
	if !strings.Contains(largest.Name, "Expand") && !strings.Contains(largest.Name, "Project") {
		t.Fatalf("IC9's largest intermediate (%d bytes) comes out of %s, want an Expand or Project:\n%+v", largest.MemBytes, largest.Name, res.OpStats)
	}
	if 2*materializing < total {
		t.Fatalf("Expand and Project operators materialize only %d of IC9's %d intermediate bytes:\n%+v", materializing, total, res.OpStats)
	}
}
