package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"ges/internal/ldbc"
)

// smokeConfig is a run small enough for `go test`: simSF 0.1 and a fixed
// operation count that still leaves ten samples beyond p99.
func smokeConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 1, sf: 0.1, ops: 1300, trace: trace, dir: t.TempDir()}
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	bj, err := readBenchmarkJSON(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, bj.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

// Every workload runs end to end, untraced and traced, fails no operation,
// passes its output checks and emits every declared metric with a unit.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := smokeConfig(t, wl.name, trace)
			rep, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < cfg.ops || rep.Oracle == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d oracle=%d", wl.name, trace, rep.Correct, rep.Failed, rep.Attempted, rep.Oracle)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl.name, trace, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", wl.name, trace, d.Name, m, ok, d.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", wl.name, d.Name, m.Value)
				}
			}
			if line, err := driverLine(rep); err != nil || !strings.HasPrefix(line, `{"attempted":`) {
				t.Errorf("driver line %q, %v", line, err)
			}
			if err := appendTrajectory(cfg, rep); err != nil {
				t.Errorf("trajectory: %v", err)
			}
		}
	}
}

// sequence renders the first n requests of a workload's reader on a fresh
// dataset.
func sequence(t *testing.T, wl workload, seed int64, n int) []byte {
	ds, err := ldbc.Generate(ldbc.Config{SF: 0.1, Seed: datasetSeed})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	s := wl.reader(ds, streamSeed(seed, streamReader))
	for i := 0; i < n; i++ {
		r := s.next()
		b.WriteString(r.path)
		b.Write(r.body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestSameSeedSameSequence(t *testing.T) {
	for _, wl := range workloads {
		a, b, c := sequence(t, wl, 7, 400), sequence(t, wl, 7, 400), sequence(t, wl, 8, 400)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different request sequences", wl.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: two seeds gave the same request sequence", wl.name)
		}
	}
}

// On the single-client workloads a fixed operation count repeats exactly:
// the rows served and every counter the server keeps.
func TestSameSeedSameCounts(t *testing.T) {
	counts := func(wl workload) (uint64, []float64) {
		cfg := smokeConfig(t, wl.name, false)
		e, _, err := setUp(cfg, wl, true)
		if err != nil {
			t.Fatal(err)
		}
		pass, err := runPass(e, cfg, wl, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		for _, path := range [][]string{
			{"commitVersion"}, {"overlayVertices"}, {"edges"}, {"vertices"},
			{"planCache", "hits"}, {"planCache", "misses"},
			{"overlay", "inserts"}, {"memory", "poolGets"}, {"memory", "liveArenaBytes"},
		} {
			out = append(out, num(pass.statsAfter, path...)-num(pass.statsBefore, path...))
		}
		out = append(out, float64(pass.ops), float64(pass.failed), float64(pass.ackedIU))
		return resultHash(pass.rowHashes), out
	}
	for _, wl := range workloads {
		if wl.writerMix != nil {
			continue
		}
		h1, c1 := counts(wl)
		h2, c2 := counts(wl)
		if h1 != h2 {
			t.Errorf("%s: result_hash %x then %x", wl.name, h1, h2)
		}
		for i := range c1 {
			if c1[i] != c2[i] {
				t.Errorf("%s: count %d was %v then %v", wl.name, i, c1[i], c2[i])
			}
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	samples := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(n - i)
		}
		return s
	}
	if _, ok := percentile(samples(999), 0.99); ok {
		t.Error("p99 of 999 samples was reported; fewer than ten lie beyond it")
	}
	if v, ok := percentile(samples(1000), 0.99); !ok || v != 991 {
		t.Errorf("p99 of 1..1000 = %d, %v; want 991, true", v, ok)
	}
	if _, ok := percentile(samples(199), 0.95); ok {
		t.Error("p95 of 199 samples was reported")
	}
	if v, ok := percentile(samples(20), 0.50); !ok || v != 11 {
		t.Errorf("p50 of 1..20 = %d, %v; want 11, true", v, ok)
	}
	if _, ok := percentile(samples(19), 0.50); ok {
		t.Error("p50 of 19 samples was reported")
	}
}

// A block's slow-down is the median of the reference passes around it, and
// of the whole run where none is near.
func TestReferenceSlowdown(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	var r reference
	if got := r.slowdown(at(0), at(10)); got != 1 {
		t.Errorf("without passes: slow-down %v, want 1", got)
	}
	for i, ns := range []int64{1, 1, 2, 4, 4} { // passes at 0, 100, ... 400 ms
		r.samples = append(r.samples, refSample{at: at(100 * i), ns: ns * int64(refNominal)})
	}
	if got := r.slowdown(at(290), at(410)); got != 4 {
		t.Errorf("block over the last two passes: slow-down %v, want 4", got)
	}
	if got := r.slowdown(at(190), at(210)); got != 2 {
		t.Errorf("block around the third pass: slow-down %v, want 2", got)
	}
	if got := r.slowdown(at(1000), at(1100)); got != 2 {
		t.Errorf("block far from any pass: slow-down %v, want the run's median 2", got)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(commit string, seed int64, tput float64) {
		ms := map[string]measured{}
		for _, d := range endToEnd {
			ms[d.Name] = measured{Value: 100, Unit: d.Unit}
		}
		ms["throughput_ops_s"] = measured{Value: tput, Unit: "ops/s"}
		rep := &report{Correct: true, Attempted: 1, Metrics: ms}
		b, err := trajectoryJSON(config{workload: "ldbc_mix", seed: seed, seconds: 8, sf: simSF, dir: dir}, rep, commit, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := appendLine(trajectoryPath(dir), b); err != nil {
			t.Fatal(err)
		}
	}
	compare := func(commit string) (string, error) {
		var out bytes.Buffer
		err := compareLines(dir, commit, endToEnd, []string{"ldbc_mix"}, &out)
		return out.String(), err
	}
	for seed, tput := range []float64{900, 1000, 1100} {
		write("aaaa", int64(seed), tput)
	}
	if out, err := compare("aaaa"); err == nil {
		t.Errorf("comparing a commit with itself printed\n%s", out)
	}
	// Seed 9 has no counterpart at aaaa and must not count: the medians are
	// 1000 against 700, a regression; the other metrics are unchanged.
	for seed, tput := range []float64{650, 700, 750} {
		write("bbbb", int64(seed), tput)
	}
	write("bbbb", 9, 5000)
	out, err := compare("aaaa")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "REGRESSION") || strings.Count(out, "ok") != len(endToEnd)-1 || !strings.Contains(out, "-30.00%") {
		t.Errorf("compare output:\n%s", out)
	}
	if _, err := compare("cccc"); err == nil {
		t.Error("comparing against a commit without lines succeeded")
	}
	write("dddd", 100, 1000)
	if out, err := compare("aaaa"); err == nil {
		t.Errorf("two commits with no seed in common were compared:\n%s", out)
	}
}

func TestMirrorCheck(t *testing.T) {
	if err := checkMirror([]uint64{1, 2, 3}, []uint64{1, 2}); err != nil {
		t.Errorf("a shorter replay that agrees: %v", err)
	}
	if err := checkMirror([]uint64{1, 2, 3}, []uint64{1, 7, 3}); err == nil || !strings.Contains(err.Error(), "operation 1") {
		t.Errorf("a diverging replay: %v", err)
	}
	if err := checkMirror([]uint64{1}, nil); err == nil {
		t.Error("an empty replay passed")
	}
}

func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "is_point", "--seconds", "0"},
		{"--workload", "is_point", "--seed", "-1"},
		{"--workload", "is_point", "-sf", "3"},
		{"--workload", "is_point", "-ops", "10"},
	} {
		var out bytes.Buffer
		if code := mainExit(args, &out, io.Discard); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want 2 and nothing", args, code, out.String())
		}
	}
}
