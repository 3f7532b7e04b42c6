// Package paritytest is the differential-test harness shared by the op,
// cypher and bench test suites. It checks the vectorized engine against the
// one reference the repository keeps — the tuple-at-a-time volcano
// interpreter — over every physical representation a storage view can take:
// a sealed CSR graph, an unsealed graph (live slot arrays, unsorted runs), a
// sealed graph carrying a storage delta overlay, and a transaction snapshot
// carrying committed overlays. The representations, not engine switches, are
// what select the fallback paths (AppendNeighborsBatch, the packed and merged
// batches, the hash-set probe, the patched gather), so sweeping them keeps
// those paths covered.
package paritytest

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ges/internal/catalog"
	"ges/internal/core"
	"ges/internal/exec"
	"ges/internal/ldbc"
	"ges/internal/plan"
	"ges/internal/storage"
	"ges/internal/txn"
	"ges/internal/vector"
	"ges/internal/volcano"
)

// Workers is the intra-query worker ladder every check sweeps.
var Workers = []int{1, 2, 4, 8}

// View is one named physical representation of a graph.
type View struct {
	Name string
	View storage.View
}

// Rows renders a result block one string per row, column names first, in
// result order.
func Rows(fb *core.FlatBlock) []string {
	out := make([]string, 0, fb.NumRows()+1)
	out = append(out, strings.Join(fb.Names, "|"))
	for _, row := range fb.Rows {
		var sb strings.Builder
		for _, v := range row {
			sb.WriteString(v.String())
			sb.WriteByte('|')
		}
		out = append(out, sb.String())
	}
	return out
}

// sorted returns rows as a multiset: header first, data rows sorted.
func sorted(rows []string) []string {
	out := append([]string(nil), rows...)
	sort.Strings(out[1:])
	return out
}

// Modes are the paper's three engine variants.
var Modes = []exec.Mode{exec.ModeFlat, exec.ModeFactorized, exec.ModeFused}

// Check runs build() on view in every engine mode at every worker count, and
// once on the volcano oracle. Parallel runs must be byte-identical to the
// 1-worker run; each 1-worker run must equal the oracle — row for row when
// the plan ends in a total order (ordered), as a multiset otherwise. It
// returns the oracle's rows as a multiset (header first), for comparing
// against an independent expectation or another view of the same graph.
func Check(t testing.TB, view storage.View, build func() plan.Plan, ordered bool) []string {
	t.Helper()
	res, err := volcano.New().Run(view, build())
	if err != nil {
		t.Fatalf("volcano: %v", err)
	}
	oracle := Rows(res.Block)
	want := oracle
	if !ordered {
		want = sorted(oracle)
	}
	for _, mode := range Modes {
		var seq []string
		for _, w := range Workers {
			eng := exec.New(mode)
			eng.Parallel = w
			res, err := eng.Run(view, build())
			if err != nil {
				t.Fatalf("%s workers=%d: %v", mode, w, err)
			}
			got := Rows(res.Block)
			if seq == nil {
				seq = got
			} else if !reflect.DeepEqual(got, seq) {
				t.Fatalf("%s workers=%d is not byte-identical to workers=1 (%d vs %d rows)", mode, w, len(got)-1, len(seq)-1)
			}
		}
		if !ordered {
			seq = sorted(seq)
		}
		if !reflect.DeepEqual(seq, want) {
			t.Fatalf("%s diverges from the volcano oracle:\n got %v\nwant %v", mode, clip(seq), clip(want))
		}
	}
	return sorted(oracle)
}

// Sweep is Check on every view, plus a cross-view comparison: the views hold
// the same logical graph, so their results must be equal as multisets.
func Sweep(t *testing.T, views []View, build func() plan.Plan, ordered bool) {
	t.Helper()
	var first []string
	for i, v := range views {
		var rows []string
		t.Run(v.Name, func(t *testing.T) { rows = Check(t, v.View, build, ordered) })
		if rows == nil {
			continue // the subtest already failed
		}
		if i == 0 {
			first = rows
			if len(first) <= 1 {
				t.Fatalf("%s: plan produced no rows; the check is vacuous", v.Name)
			}
		} else if first != nil && !reflect.DeepEqual(rows, first) {
			t.Fatalf("%s holds the same logical graph as %s but returns different rows:\n got %v\nwant %v",
				v.Name, views[0].Name, clip(rows), clip(first))
		}
	}
}

// SweepViews is Check on every view without Sweep's cross-view comparison,
// for plans whose answer depends on the order a view lists neighbors in: a
// LIMIT without ORDER BY keeps the enumeration's first tuples, a float SUM
// rounds in enumeration order. rows >= 0 pins every view's row count, which
// is how an empty answer (LIMIT 0, a SKIP past the end) is checked.
func SweepViews(t *testing.T, views []View, build func() plan.Plan, rows int) {
	t.Helper()
	for _, v := range views {
		t.Run(v.Name, func(t *testing.T) {
			if got := Check(t, v.View, build, false); rows >= 0 && len(got)-1 != rows {
				t.Fatalf("want %d rows, got %v", rows, clip(got))
			}
		})
	}
}

// clip bounds a failure message.
func clip(rows []string) []string {
	if len(rows) > 12 {
		return append(append([]string(nil), rows[:12]...), "...")
	}
	return rows
}

// LDBCViews generates one LDBC graph, applies a fixed post-load mutation set
// (KNOWS edges deleted, KNOWS edges added, two person properties rewritten)
// and returns it behind the four representations. The mutations reach each
// view the way that view's writes do — storage deletes and inserts into the
// delta overlay, inserts and property writes through a committed
// transaction — so all four hold the same logical graph. The dataset is
// returned for its handles; plans must address vertices by label scan or
// external id, because the unsealed view's load renumbers VIDs.
func LDBCViews(t testing.TB, sf float64, seed int64) (*ldbc.Dataset, []View) {
	t.Helper()
	gen := func() *ldbc.Dataset {
		ds, err := ldbc.Generate(ldbc.Config{SF: sf, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		// Deltas must stay in place, not drain into a background reseal.
		ds.Graph.SetResealPolicy(1e9, 1<<30)
		return ds
	}
	ds := gen()
	h, ps := ds.H, ds.Persons
	type edge struct{ src, dst vector.VID }
	var dels, adds []edge
	var b storage.Batch
	ds.Graph.NeighborsBatch(ps, h.Knows, catalog.Out, h.Person, false, &b)
	for i, p := range ps {
		run := b.Run(i)
		if i%3 == 0 && len(run) > 1 {
			dels = append(dels, edge{p, run[len(run)/2]})
		}
		// A pair absent from the generated edge set, both directions.
		for j := 1; j < len(ps); j++ {
			q := ps[(i*7+j)%len(ps)]
			if k := sort.Search(len(run), func(k int) bool { return run[k] >= q }); q != p && (k == len(run) || run[k] != q) {
				adds = append(adds, edge{p, q})
				break
			}
		}
	}
	date := func(e edge) vector.Value { return vector.Date(int64(ldbc.DayStart) + int64(e.src+e.dst)%1000) }
	name, created := vector.String_("Overlay"), vector.Date(int64(ldbc.DayEnd+100))
	del := func(g *storage.Graph) {
		for _, e := range dels {
			if !g.DeleteEdge(h.Knows, e.src, e.dst) {
				t.Fatalf("paritytest: KNOWS %d->%d missing", e.src, e.dst)
			}
		}
	}
	add := func(g *storage.Graph) {
		for _, e := range adds {
			if err := g.AddEdge(h.Knows, e.src, e.dst, date(e)); err != nil {
				t.Fatal(err)
			}
		}
		g.SetProp(ps[0], h.PFirstName, name)
		g.SetProp(ps[1], h.PCreation, created)
	}

	// Sealed: mutations applied, then a quiesced rebuild — empty deltas.
	del(ds.Graph)
	add(ds.Graph)
	ds.Graph.SealCSR()

	// Unsealed: a save/load round trip yields a graph that was never sealed.
	var buf bytes.Buffer
	if err := ds.Graph.Save(&buf); err != nil {
		t.Fatal(err)
	}
	unsealed, _, err := storage.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if unsealed.CSRSealed() {
		t.Fatal("paritytest: loaded graph is sealed; the unsealed view would not reach the fallbacks")
	}

	// Delta overlay: the same mutations after the seal stay in the deltas.
	delta := gen().Graph
	del(delta)
	add(delta)
	if ov := delta.Overlay(); ov.Inserts == 0 || ov.Tombstones == 0 {
		t.Fatalf("paritytest: delta view carries no overlay (%+v)", ov)
	}

	// Txn overlay: transactions cannot delete, so the deletes are sealed in
	// and the inserts and property writes commit through MV2PL.
	base := gen().Graph
	del(base)
	base.SealCSR()
	mgr := txn.NewManager(base)
	tx := mgr.Begin(ps)
	for _, e := range adds {
		if err := tx.AddEdge(h.Knows, e.src, e.dst, date(e)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.SetProp(ps[0], h.PFirstName, name); err != nil {
		t.Fatal(err)
	}
	if err := tx.SetProp(ps[1], h.PCreation, created); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	return ds, []View{
		{"sealed", ds.Graph},
		{"unsealed", unsealed},
		{"delta-overlay", delta},
		{"txn-overlay", mgr.Snapshot()},
	}
}
