package bench_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"ges/internal/bench"
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
		"update":   "byte-identical",
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
// scale: in the flat engine's operator breakdown of the long-running
// queries, expansion operators account for the largest share.
func TestFig3ExpandDominates(t *testing.T) {
	if testing.Short() {
		t.Skip("breakdown test skipped in -short")
	}
	var buf bytes.Buffer
	cfg := tinyConfig()
	cfg.SFs = []float64{0.3}
	cfg.Runs = 5
	e, err := bench.ByID("fig3")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	// The paper's claim is that tuple materialization dominates the flat
	// engine: the expansion operators plus the projection that replicates
	// fetched properties through the flat table must account for most of
	// IC9's runtime, and an Expand variant must rank in the top two.
	out := buf.String()
	idx := strings.Index(out, "IC9")
	if idx < 0 {
		t.Fatalf("IC9 missing from breakdown:\n%s", out)
	}
	section := out[idx:]
	if end := strings.Index(section[1:], "IC"); end > 0 {
		section = section[:end+1]
	}
	lines := strings.Split(section, "\n")
	if len(lines) < 3 {
		t.Fatalf("breakdown too short:\n%s", section)
	}
	top2 := lines[1] + lines[2]
	if !strings.Contains(top2, "Expand") {
		t.Fatalf("no Expand variant in IC9's top-2 operators:\n%s", section)
	}
	matPct := 0.0
	for _, line := range lines[1:] {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		name := fields[0]
		if strings.Contains(name, "Expand") || strings.Contains(name, "Project") {
			var p float64
			fmt.Sscanf(fields[1], "%f%%", &p)
			matPct += p
		}
	}
	if matPct < 50 {
		t.Fatalf("materialization operators only account for %.1f%% of IC9:\n%s", matPct, section)
	}
}
