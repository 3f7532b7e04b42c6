// Package paritytest is the differential-test harness shared by the op,
// cypher and bench test suites. It checks the vectorized engine against the
// one reference the repository keeps — the tuple-at-a-time volcano
// interpreter — over every physical representation a storage view can take:
// a sealed CSR graph, a reloaded graph handed out unsealed (its first read
// seals it, with its VIDs renumbered by the reload), a sealed graph whose
// deltas hold commits, and a pinned transaction snapshot with a later commit
// hidden by its version. The representations, not engine switches, are what
// select the fallback paths (the merged batch pieces, the created vertices'
// tail rows), so sweeping them keeps those paths covered; the hash-set probes
// are reached on every view by plans over Both or AnyLabel, whose runs join
// two families.
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
// LIMIT without ORDER BY keeps the enumeration's first tuples, an ORDER BY
// LIMIT that cuts through a group of equal keys keeps its first tuples in
// input order, a float SUM rounds in enumeration order. rows >= 0 pins every
// view's row count, which is how an empty answer (LIMIT 0, a SKIP past the
// end) is checked.
func SweepViews(t *testing.T, views []View, build func() plan.Plan, ordered bool, rows int) {
	t.Helper()
	for _, v := range views {
		t.Run(v.Name, func(t *testing.T) {
			if got := Check(t, v.View, build, ordered); rows >= 0 && len(got)-1 != rows {
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

// CreatedPerson is the external id of the person LDBCViews creates after the
// load.
const CreatedPerson = 1 << 40

// LDBCViews generates one LDBC graph, commits a fixed post-load mutation set
// (KNOWS edges added, a person created — past the base VID range — with a
// KNOWS edge each way) and returns it behind the four representations. Each
// view holds the mutations the way the graph holds commits — folded into the
// images by a reseal, left in the deltas, or read by a snapshot pinned after
// the commit — so all four hold the same logical graph; the transaction view
// is a pinned snapshot with a later commit's edges in the deltas it reads,
// hidden by their version. The dataset is returned for its handles; plans
// must address vertices by label scan or external id, because the unsealed
// view's load renumbers VIDs.
//
// The unsealed view is a Save→Load round trip: it is handed out still in the
// bulk phase, and the first read of it seals it.
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
	var adds []edge
	var b storage.Batch
	ds.Graph.NeighborsBatch(ps, h.Knows, catalog.Out, h.Person, false, &b)
	for i, p := range ps {
		run := b.Run(i)
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
	// The created person copies ps[4]'s properties; it knows ps[5] and ps[4]
	// knows it, so ps[4]'s followers reach it at hop 2. Its edges carry one
	// date whatever VID a view gives it.
	var person []vector.Value
	for p := range ds.Graph.Catalog().LabelProps(h.Person) {
		person = append(person, ds.Graph.Prop(ps[4], catalog.PropID(p)))
	}
	createdDate := vector.Date(int64(ldbc.DayStart) + 17)
	// commit writes the mutation set into g as its first commit.
	commit := func(g *storage.Graph) {
		v := vector.VID(g.NumVertices())
		if err := g.CommitVertex(1, v, h.Person, CreatedPerson, person...); err != nil {
			t.Fatal(err)
		}
		for _, e := range adds {
			if err := g.CommitEdge(1, h.Knows, e.src, e.dst, date(e)); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range []edge{{ps[4], v}, {v, ps[5]}} {
			if err := g.CommitEdge(1, h.Knows, e.src, e.dst, createdDate); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Sealed: the commit folded into the images by a quiesced reseal.
	commit(ds.Graph)
	ds.Graph.SealCSR()

	// Unsealed: a save/load round trip yields a graph its first read seals.
	var buf bytes.Buffer
	if err := ds.Graph.Save(&buf); err != nil {
		t.Fatal(err)
	}
	unsealed, _, err := storage.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if unsealed.CSRSealed() {
		t.Fatal("paritytest: loaded graph is sealed; the unsealed view would not reach the first-read seal")
	}

	// Delta overlay: the same commit, left in the deltas.
	delta := gen().Graph
	commit(delta)
	if ov := delta.Overlay(); ov.Inserts == 0 {
		t.Fatalf("paritytest: delta view carries no overlay (%+v)", ov)
	}

	// Txn overlay: the mutations commit through MV2PL.
	mgr := txn.NewManager(gen().Graph)
	tx := mgr.Begin(ps)
	for _, e := range adds {
		if err := tx.AddEdge(h.Knows, e.src, e.dst, date(e)); err != nil {
			t.Fatal(err)
		}
	}
	nv, err := tx.AddVertex(h.Person, CreatedPerson, person...)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []edge{{ps[4], nv}, {nv, ps[5]}} {
		if err := tx.AddEdge(h.Knows, e.src, e.dst, createdDate); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// The view is the snapshot pinned after that commit. A second commit then
	// adds KNOWS edges no other view holds, into the same deltas: every table
	// that compares the views checks that the snapshot never sees them.
	snap := mgr.AcquireSnapshot()
	later := mgr.Begin(ps)
	for i := 0; i+1 < len(ps); i += 3 {
		if err := later.AddEdge(h.Knows, ps[i], ps[i+1], date(edge{ps[i], ps[i+1]})); err != nil {
			t.Fatal(err)
		}
	}
	if err := later.Commit(); err != nil {
		t.Fatal(err)
	}

	return ds, []View{
		{"sealed", ds.Graph},
		{"unsealed", unsealed},
		{"delta-overlay", delta},
		{"txn-overlay", snap},
	}
}
