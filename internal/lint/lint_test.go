package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// wantRe matches the fixture expectation markers: `// want R3`.
var wantRe = regexp.MustCompile(`//\s*want\s+(R\d+)\b`)

// wantBelowRe marks the NEXT line as expected. It exists for findings that
// land on a directive's own line (an unjustified opt-out), where an inline
// marker would be parsed as the directive's justification and defeat the
// case it fixes.
var wantBelowRe = regexp.MustCompile(`//\s*want-below\s+(R\d+)\b`)

// fixtureWants scans the fixture module for `// want Rn` markers and returns
// them as "file:line:rule" keys (file relative to the fixture root).
func fixtureWants(t *testing.T, root string) map[string]bool {
	t.Helper()
	want := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, werr error) error {
		if werr != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return werr
		}
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		rel, _ := filepath.Rel(root, path)
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				want[fmt.Sprintf("%s:%d:%s", filepath.ToSlash(rel), i+1, m[1])] = true
			}
			for _, m := range wantBelowRe.FindAllStringSubmatch(line, -1) {
				want[fmt.Sprintf("%s:%d:%s", filepath.ToSlash(rel), i+2, m[1])] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestRulesOnFixtureModule loads the miniature module under testdata/src —
// stub packages published under the real import paths — and checks the
// analyzer's findings against the `// want Rn` markers exactly: every marked
// line must be found (one positive case per rule) and nothing else may be
// flagged (the negative cases).
func TestRulesOnFixtureModule(t *testing.T) {
	root := filepath.Join("testdata", "src")
	mod, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if mod.Path != "ges" {
		t.Fatalf("fixture module path = %q, want ges", mod.Path)
	}
	diags := Run(mod)

	got := map[string]bool{}
	for _, d := range diags {
		got[fmt.Sprintf("%s:%d:%s", d.File, d.Line, d.Rule)] = true
	}
	want := fixtureWants(t, root)

	var missing, extra []string
	for k := range want {
		if !got[k] {
			missing = append(missing, k)
		}
	}
	for k := range got {
		if !want[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	for _, k := range missing {
		t.Errorf("expected finding not reported: %s", k)
	}
	for _, k := range extra {
		t.Errorf("unexpected finding: %s", k)
	}

	// Every rule must have at least one positive case in the fixture, so a
	// rule silently dying cannot pass the test.
	for _, rule := range []string{"R0", "R2", "R3", "R5", "R7", "R8", "R10", "R11"} {
		found := false
		for k := range want {
			if strings.HasSuffix(k, ":"+rule) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("fixture has no positive case for %s", rule)
		}
	}
}

// selfCleanPkgs is the package set the directory walk reaches from the
// module root, the nested benchmark module included. A package added to or
// removed from the module is added to or removed from this list; a loader
// change that narrows the set fails the test instead of silently checking
// less.
var selfCleanPkgs = []string{
	"ges",
	"ges/benchmark",
	"ges/cmd/gesbench",
	"ges/cmd/gesd",
	"ges/cmd/gesgen",
	"ges/cmd/gesh",
	"ges/cmd/geslint",
	"ges/examples/fraud",
	"ges/examples/quickstart",
	"ges/examples/recommendation",
	"ges/internal/bench",
	"ges/internal/catalog",
	"ges/internal/core",
	"ges/internal/cypher",
	"ges/internal/driver",
	"ges/internal/exec",
	"ges/internal/expr",
	"ges/internal/ldbc",
	"ges/internal/ldbc/queries",
	"ges/internal/lint",
	"ges/internal/op",
	"ges/internal/paritytest",
	"ges/internal/plan",
	"ges/internal/service",
	"ges/internal/stats",
	"ges/internal/storage",
	"ges/internal/testgraph",
	"ges/internal/testgraph/edgemodel",
	"ges/internal/txn",
	"ges/internal/vector",
	"ges/internal/volcano",
}

// TestSelfClean runs the analyzer over the real module: after the deliberate
// exceptions were annotated, `geslint ./...` must be clean — the same gate
// CI enforces. It pins the loaded package set, and doubles as the
// analysis-latency smoke: loading, summarizing, and closing the whole
// module must finish within a 15s budget, race detector included.
func TestSelfClean(t *testing.T) {
	root := filepath.Join("..", "..")
	// The loader reads the standard library's export data from the build
	// cache. A cold cache compiles it first, a one-time toolchain cost that
	// is not the analysis', so an untimed load warms it.
	if _, err := LoadModule(root); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	mod, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(mod)
	elapsed := time.Since(start)
	for _, d := range diags {
		t.Errorf("module not clean: %s", d)
	}
	var got []string
	for _, pkg := range mod.Pkgs {
		got = append(got, pkg.ImportPath)
	}
	if strings.Join(got, " ") != strings.Join(selfCleanPkgs, " ") {
		t.Errorf("loaded packages = %v, want %v", got, selfCleanPkgs)
	}
	if elapsed > 15*time.Second {
		t.Errorf("whole-module analysis took %v, budget is 15s", elapsed)
	}
}

// TestSummaryConvergence pins the interprocedural fixed points on the
// recursive fixture functions: a pure mutual-recursion cycle must converge
// without being marked impure, and impurity entering a cycle must propagate
// out of it with the call chain intact.
func TestSummaryConvergence(t *testing.T) {
	mod, err := LoadModule(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	a := Analyze(mod)
	byName := map[string]*FuncInfo{}
	for _, fi := range a.funcOrder {
		if fi.Pkg.Rel == "internal/vector" {
			byName[fi.Fn.Name()] = fi
		}
	}
	for _, name := range []string{"KEvenSteps", "KOddSteps"} {
		fi := byName[name]
		if fi == nil {
			t.Fatalf("fixture function %s not summarized", name)
		}
		if !fi.Pure() {
			t.Errorf("%s: pure recursive cycle marked impure: %+v", name, fi.Impure())
		}
	}
	fi := byName["KBadCycle"]
	if fi == nil {
		t.Fatal("fixture function KBadCycle not summarized")
	}
	imp := fi.Impure()
	if imp == nil {
		t.Fatal("KBadCycle: impurity did not propagate out of the recursive cycle")
	}
	if imp.What != "make" {
		t.Errorf("KBadCycle impurity = %q, want the root make site", imp.What)
	}
	if len(imp.Via) == 0 || imp.Via[0] != "badPing" {
		t.Errorf("KBadCycle impurity chain = %v, want it to enter through badPing", imp.Via)
	}
}

// TestJSONOutput checks the -json encoding: an empty run emits a JSON array
// (not null), and findings round-trip with all fields.
func TestJSONOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Fatalf("empty findings encode as %q, want []", got)
	}

	in := []Diag{{File: "internal/op/x.go", Line: 3, Col: 7, Rule: "R5", Msg: "raw go statement"}}
	buf.Reset()
	if err := WriteJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out []Diag
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != in[0] {
		t.Fatalf("round-trip = %+v, want %+v", out, in)
	}
	if !strings.Contains(buf.String(), `"rule": "R5"`) {
		t.Fatalf("JSON missing rule field: %s", buf.String())
	}
}
