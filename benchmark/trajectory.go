package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// trajectoryLine is one run in benchmark/trajectory.jsonl. The file is
// append-only: lines are added, never rewritten.
type trajectoryLine struct {
	Time       string              `json:"time"`
	Commit     string              `json:"commit"`
	Dirty      bool                `json:"dirty"`
	Go         string              `json:"go"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	NProc      int                 `json:"nproc"`
	CPU        string              `json:"cpu"`
	SimSF      float64             `json:"sim_sf"`
	Workload   string              `json:"workload"`
	Seed       int64               `json:"seed"`
	Seconds    float64             `json:"seconds"`
	Traced     bool                `json:"traced"`
	ReaderOps  int                 `json:"reader_ops"`
	WriterOps  int                 `json:"writer_ops"`
	Attempted  int                 `json:"attempted"`
	Failed     int                 `json:"failed"`
	Oracle     int                 `json:"oracle_checked"`
	ResultHash string              `json:"result_hash,omitempty"`
	HashOps    int                 `json:"hash_ops,omitempty"`
	Metrics    map[string]measured `json:"metrics"`
}

func trajectoryPath(dir string) string { return filepath.Join(dir, "trajectory.jsonl") }

func appendTrajectory(cfg config, rep *report) error {
	commit, dirty := gitState(cfg.dir)
	b, err := trajectoryJSON(cfg, rep, commit, dirty)
	if err != nil {
		return err
	}
	return appendLine(trajectoryPath(cfg.dir), b)
}

func trajectoryJSON(cfg config, rep *report, commit string, dirty bool) ([]byte, error) {
	return json.Marshal(trajectoryLine{
		Time: time.Now().UTC().Format(time.RFC3339), Commit: commit, Dirty: dirty,
		Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), CPU: cpuModel(),
		SimSF: cfg.sf, Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace,
		ReaderOps: rep.ReaderOps, WriterOps: rep.WriterOps, Attempted: rep.Attempted, Failed: rep.Failed,
		Oracle: rep.Oracle, ResultHash: rep.ResultHash, HashOps: rep.HashOps, Metrics: rep.Metrics,
	})
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// gitState names the commit the run measured and whether tracked files
// differ from it. The trajectory itself is left out of that question: every
// run appends to it, so it always differs. Outside a git checkout (the
// driver's) the commit is "unknown".
func gitState(dir string) (commit string, dirty bool) {
	git := func(args ...string) (string, error) {
		out, err := exec.Command("git", append([]string{"-C", dir}, args...)...).Output()
		return strings.TrimSpace(string(out)), err
	}
	commit, err := git("rev-parse", "HEAD")
	if err != nil {
		return "unknown", false
	}
	st, err := git("status", "--porcelain", "--untracked-files=no", "--", ":/", ":(top,exclude)benchmark/trajectory.jsonl")
	return commit, err != nil || st != ""
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// benchmarkJSON is the part of BENCHMARK.json the benchmark itself reads.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(dir string) (*benchmarkJSON, error) {
	b, err := os.ReadFile(filepath.Join(dir, "..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bj, nil
}

// compareTrajectory prints, per workload, the end-to-end metrics of the
// newest measured commit against those of the given commit (a prefix is
// enough), judged by the bounds in BENCHMARK.json.
func compareTrajectory(dir, commit string, w io.Writer) error {
	bj, err := readBenchmarkJSON(dir)
	if err != nil {
		return err
	}
	var names []string
	for _, wl := range bj.Workloads {
		names = append(names, wl.Name)
	}
	return compareLines(dir, commit, bj.EndToEnd, names, w)
}

// runKey is what two trajectory lines must share to be comparable.
type runKey struct {
	workload string
	seed     int64
	seconds  float64
	simSF    float64
}

// compareLines compares two commits: base, named by a prefix, and current,
// the commit of the newest untraced line. Only runs that both sides made with
// the same workload, seed, run length and scale count; each side's value is
// the median over all of its counted runs. One pair of lines says little on a
// noisy machine — record several seeds on both sides.
func compareLines(dir, commit string, defs []metricDef, workloads []string, w io.Writer) error {
	f, err := os.Open(trajectoryPath(dir))
	if err != nil {
		return err
	}
	defer f.Close()
	var lines []trajectoryLine
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var l trajectoryLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return fmt.Errorf("trajectory.jsonl: %w", err)
		}
		if !l.Traced {
			lines = append(lines, l)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(lines) == 0 {
		return fmt.Errorf("trajectory.jsonl has no untraced line")
	}
	current := lines[len(lines)-1].Commit
	if strings.HasPrefix(current, commit) {
		return fmt.Errorf("the newest trajectory line is of commit %s itself: nothing to compare", current)
	}
	base, cur := map[runKey][]trajectoryLine{}, map[runKey][]trajectoryLine{}
	for _, l := range lines {
		k := runKey{l.Workload, l.Seed, l.Seconds, l.SimSF}
		switch {
		case strings.HasPrefix(l.Commit, commit):
			base[k] = append(base[k], l)
		case l.Commit == current:
			cur[k] = append(cur[k], l)
		}
	}
	if len(base) == 0 {
		return fmt.Errorf("no untraced trajectory line of commit %s", commit)
	}
	fmt.Fprintf(w, "base %s, current %s\n", commit, current)
	fmt.Fprintf(w, "%-18s %-18s %5s %14s %14s %9s %7s  %s\n", "workload", "metric", "runs", "base", "current", "change", "bound", "verdict")
	compared := 0
	for _, name := range workloads {
		for _, d := range defs {
			var bvs, cvs []float64
			for k, bl := range base {
				if k.workload != name || len(cur[k]) == 0 {
					continue
				}
				for _, l := range bl {
					bvs = append(bvs, l.Metrics[d.Name].Value)
				}
				for _, l := range cur[k] {
					cvs = append(cvs, l.Metrics[d.Name].Value)
				}
			}
			if len(bvs) == 0 {
				continue
			}
			compared++
			bv, cv := median(bvs), median(cvs)
			runs := fmt.Sprintf("%d/%d", len(bvs), len(cvs))
			if bv == 0 {
				fmt.Fprintf(w, "%-18s %-18s %5s %14.4f %14.4f %9s %6.0f%%  %s\n", name, d.Name, runs, bv, cv, "n/a", 100*d.Bound, "base is 0")
				continue
			}
			worse := (cv - bv) / bv
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > d.Bound {
				verdict = "REGRESSION"
			}
			fmt.Fprintf(w, "%-18s %-18s %5s %14.4f %14.4f %+8.2f%% %6.0f%%  %s\n",
				name, d.Name, runs, bv, cv, 100*(cv-bv)/bv, 100*d.Bound, verdict)
		}
	}
	if compared == 0 {
		return fmt.Errorf("commits %s and %s share no run of the same workload, seed, seconds and scale", commit, current)
	}
	return nil
}
