package cypher_test

import (
	"reflect"
	"strings"
	"testing"

	"ges/internal/catalog"
	"ges/internal/core"
	"ges/internal/cypher"
	"ges/internal/exec"
	"ges/internal/paritytest"
	"ges/internal/plan"
	"ges/internal/storage"
	"ges/internal/testgraph"
	"ges/internal/vector"
	"ges/internal/volcano"
)

func runCypher(t *testing.T, f *testgraph.Fixture, mode exec.Mode, src string) *core.FlatBlock {
	t.Helper()
	p, err := cypher.Compile(src, f.Cat)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	res, err := exec.New(mode).Run(f.Graph, p)
	if err != nil {
		t.Fatalf("run %q: %v", src, err)
	}
	return res.Block
}

func rowStrings(fb *core.FlatBlock) []string {
	out := make([]string, fb.NumRows())
	for i, row := range fb.Rows {
		var sb strings.Builder
		for _, v := range row {
			sb.WriteString(v.String())
			sb.WriteByte('|')
		}
		out[i] = sb.String()
	}
	return out
}

// TestPaperQueryEndToEnd compiles and runs the paper's §4.3 example query
// text (adapted to the fixture's schema) and checks the exact top-2 result.
func TestPaperQueryEndToEnd(t *testing.T) {
	f := testgraph.New()
	src := `
		MATCH (p:Person)-[:KNOWS*1..2]->(fr) WHERE id(p) = 100
		WITH fr
		MATCH (fr)<-[:HAS_CREATOR]-(msg) WHERE msg.length > 125
		RETURN id(fr), id(msg), msg.length AS len
		ORDER BY len DESC, id(fr) ASC
		LIMIT 2`
	for _, mode := range []exec.Mode{exec.ModeFlat, exec.ModeFactorized, exec.ModeFused} {
		fb := runCypher(t, f, mode, src)
		if fb.NumRows() != 2 {
			t.Fatalf("%s: rows = %d\n%s", mode, fb.NumRows(), fb)
		}
		// Expected (see op tests): (106, 205, 150) then (105, 204, 140).
		if fb.Rows[0][0].I != 106 || fb.Rows[0][1].I != 205 || fb.Rows[0][2].I != 150 {
			t.Fatalf("%s: row0 = %v", mode, fb.Rows[0])
		}
		if fb.Rows[1][0].I != 105 || fb.Rows[1][1].I != 204 || fb.Rows[1][2].I != 140 {
			t.Fatalf("%s: row1 = %v", mode, fb.Rows[1])
		}
		if got := fb.Names[2]; got != "len" {
			t.Fatalf("alias not applied: %q", got)
		}
	}
}

func TestScanFilterProject(t *testing.T) {
	f := testgraph.New()
	fb := runCypher(t, f, exec.ModeFused, `
		MATCH (p:Person) WHERE p.firstName STARTS WITH 'A'
		RETURN id(p), p.firstName`)
	want := []string{"100|Ada|"}
	if got := rowStrings(fb); !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestAggregation(t *testing.T) {
	f := testgraph.New()
	fb := runCypher(t, f, exec.ModeFused, `
		MATCH (p:Person)<-[:HAS_CREATOR]-(m:Post)
		RETURN id(p) AS creator, COUNT(*) AS posts, MAX(m.length) AS longest
		ORDER BY posts DESC, creator ASC`)
	// Post creators: p1x1, p2x2, p4x1, p5x1, p6x1, p9x1.
	if fb.NumRows() != 6 {
		t.Fatalf("groups = %d\n%s", fb.NumRows(), fb)
	}
	if fb.Rows[0][0].I != 102 || fb.Rows[0][1].I != 2 {
		t.Fatalf("top group = %v", fb.Rows[0])
	}
	if !reflect.DeepEqual(fb.Names, []string{"creator", "posts", "longest"}) {
		t.Fatalf("names = %v", fb.Names)
	}
}

func TestDistinctAndSkipLimit(t *testing.T) {
	f := testgraph.New()
	fb := runCypher(t, f, exec.ModeFactorized, `
		MATCH (p:Person)-[:KNOWS]->(f)-[:KNOWS]->(g) WHERE id(p) = 100
		RETURN DISTINCT id(g)
		ORDER BY id(g) ASC
		SKIP 1 LIMIT 2`)
	want := []string{"104|", "105|"}
	if got := rowStrings(fb); !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestIncomingAndBothDirections(t *testing.T) {
	f := testgraph.New()
	// Likers of post 200 (incoming LIKES).
	fb := runCypher(t, f, exec.ModeFused, `
		MATCH (m:Post)<-[:LIKES]-(who) WHERE id(m) = 200
		RETURN id(who) ORDER BY id(who) ASC`)
	want := []string{"100|", "107|"}
	if got := rowStrings(fb); !reflect.DeepEqual(got, want) {
		t.Fatalf("likers = %v, want %v", got, want)
	}
	// Undirected traversal finds p0's neighborhood both ways.
	fb2 := runCypher(t, f, exec.ModeFused, `
		MATCH (p:Person)-[:KNOWS]-(f) WHERE id(p) = 101
		RETURN DISTINCT id(f) ORDER BY id(f)`)
	if fb2.NumRows() != 2 { // p0 and p4 (symmetric edges, both directions)
		t.Fatalf("undirected neighbors:\n%s", fb2)
	}
}

func TestInAndBooleanOps(t *testing.T) {
	f := testgraph.New()
	fb := runCypher(t, f, exec.ModeFused, `
		MATCH (p:Person)
		WHERE p.firstName IN ['Ada', 'Eve'] AND NOT p.firstName = 'Eve'
		RETURN p.firstName`)
	if fb.NumRows() != 1 || fb.Rows[0][0].S != "Ada" {
		t.Fatalf("rows:\n%s", fb)
	}
}

func TestArithmeticReturn(t *testing.T) {
	f := testgraph.New()
	fb := runCypher(t, f, exec.ModeFused, `
		MATCH (m:Post) WHERE id(m) = 200
		RETURN m.length + 1 AS incremented`)
	if fb.NumRows() != 1 || fb.Rows[0][0].I != 101 {
		t.Fatalf("rows:\n%s", fb)
	}
	if fb.Names[0] != "incremented" {
		t.Fatalf("names = %v", fb.Names)
	}
}

func TestParseErrors(t *testing.T) {
	f := testgraph.New()
	cases := []struct {
		src  string
		frag string
	}{
		{"RETURN 1", "MATCH"},
		{"MATCH (p:Nope) RETURN id(p)", "unknown label"},
		{"MATCH (p:Person)-[:NOPE]->(q) RETURN id(p)", "unknown relationship"},
		{"MATCH (p) RETURN id(p)", "needs a label"},
		{"MATCH (p:Person RETURN id(p)", "expected"},
		{"MATCH (p:Person) WHERE p.firstName = RETURN 1", "literal"},
		{"MATCH (p:Person) RETURN id(q)", "unknown variable"},
		{"MATCH (p:Person) RETURN id(p) ORDER BY nope", "unknown alias"},
		{"MATCH (p:Person)-[:KNOWS*0..2]->(g:Person) WHERE id(p) = 100 RETURN id(g)", "hop bound 0"},
		{"MATCH (p:Person)-[:KNOWS*0]->(g:Person) WHERE id(p) = 100 RETURN id(g)", "hop bound 0"},
		{"MATCH (p:Person)-[:KNOWS*1..0]->(g:Person) RETURN id(g)", "hop bound 0"},
		{"MATCH (p:Person)-[:KNOWS*1..99999999999999999999]->(g:Person) RETURN id(g)", "hop bound 99999999999999999999"},
		{"MATCH (p:Person)-[:KNOWS*99999999999999999999]->(g:Person) RETURN id(g)", "hop bound 99999999999999999999"},
		{"MATCH (p:Person)-[:KNOWS]->(f:Person) WHERE id(p) = 100 RETURN SUM(f.firstName) AS s", "sum(f.firstName) takes a number, got string"},
		{"MATCH (p:Person)-[:KNOWS]->(f:Person) RETURN id(p) AS p, AVG(f.lastName) AS a", "avg(f.lastName) takes a number, got string"},
	}
	sealed := testgraph.New()
	sealed.Graph.SealCSR()
	cache := cypher.NewCache(sealed.Graph)
	for _, c := range cases {
		_, err := cypher.Compile(c.src, f.Cat)
		if err == nil {
			t.Errorf("%q: expected error containing %q", c.src, c.frag)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%q: error %q does not mention %q", c.src, err, c.frag)
		}
		// The prepared path (normalize, cache, cost-based binder) refuses it
		// the same way.
		if _, err := cache.Prepare(c.src); err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%q: Prepare error %v does not mention %q", c.src, err, c.frag)
		}
	}
}

// TestUnknownPropertyFailsInEveryMode: a WHERE on a property no label
// defines fails the query in every mode, and in the oracle — also where
// FilterPushDown has folded the predicate into the Expand and dropped the
// projection that would have reported it.
func TestUnknownPropertyFailsInEveryMode(t *testing.T) {
	f := testgraph.New()
	p, err := cypher.Compile(`MATCH (p:Person)-[:KNOWS]->(f:Person)
		WHERE id(p) = 100 AND f.nosuch = 1 RETURN id(f)`, f.Cat)
	if err != nil {
		t.Fatal(err)
	}
	if fused := plan.Fuse(p).String(); !strings.Contains(fused, "Expand(fused-filter)") {
		t.Fatalf("fused plan %s does not fold the filter into the expand", fused)
	}
	const want = `property "nosuch" not defined by any label`
	check := func(name string, err error) {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one containing %q", name, err, want)
		}
	}
	for _, mode := range []exec.Mode{exec.ModeFlat, exec.ModeFactorized, exec.ModeFused} {
		_, err := exec.New(mode).Run(f.Graph, p)
		check(mode.String(), err)
	}
	_, err = volcano.New().Run(f.Graph, plan.Fuse(p))
	check("volcano (fused plan)", err)
}

func TestCountDistinct(t *testing.T) {
	f := testgraph.New()
	fb := runCypher(t, f, exec.ModeFused, `
		MATCH (p:Person)-[:KNOWS*1..2]->(f)
		WHERE id(p) = 100
		RETURN COUNT(DISTINCT f.lastName) AS names`)
	if fb.NumRows() != 1 || fb.Rows[0][0].I != 1 {
		t.Fatalf("rows:\n%s", fb)
	}
}

func TestVarLengthDefaultBound(t *testing.T) {
	f := testgraph.New()
	fb := runCypher(t, f, exec.ModeFused, `
		MATCH (p:Person)-[:KNOWS*]->(f) WHERE id(p) = 100
		RETURN COUNT(*) AS reach`)
	if fb.NumRows() != 1 {
		t.Fatal("want one row")
	}
	// *1..3 default: p1..p9 minus p8,p9? p7/p8/p9 are 3 hops: reachable
	// within 3 hops: p1..p9 = 9.
	if fb.Rows[0][0].I != 9 {
		t.Fatalf("reach = %v", fb.Rows[0][0])
	}
}

// triangleFixture returns the shared fixture with a symmetric p1-p2 edge
// added, closing two KNOWS triangles ({p0,p1,p2} via p0's edges and
// {p1,p2,p4} via p4's).
func triangleFixture(t *testing.T) *testgraph.Fixture {
	t.Helper()
	f := testgraph.New()
	s := f.Schema
	for _, e := range [][2]int{{1, 2}} {
		a, b := f.Persons[e[0]], f.Persons[e[1]]
		if err := f.Graph.AddEdge(s.Knows, a, b, vector.Date(21000)); err != nil {
			t.Fatal(err)
		}
		if err := f.Graph.AddEdge(s.Knows, b, a, vector.Date(21000)); err != nil {
			t.Fatal(err)
		}
	}
	f.Graph.SealCSR()
	return f
}

// TestCyclicPatternCompilesToExpandIntersect checks that a triangle pattern —
// whose closing relationship targets an already-bound variable — lowers to
// the multiway intersection operator and returns the right count in every
// mode and at every worker count, in agreement with the volcano oracle.
func TestCyclicPatternCompilesToExpandIntersect(t *testing.T) {
	f := triangleFixture(t)
	src := `MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person)-[:KNOWS]->(a)
	        RETURN count(*) AS n`
	p, err := cypher.Compile(src, f.Cat)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.String(), "ExpandIntersect") {
		t.Fatalf("cyclic pattern did not lower to ExpandIntersect: %s", p)
	}
	// Two triangles, six ordered traversals each.
	rows := paritytest.Check(t, f.Graph, func() plan.Plan { return p }, true)
	if want := []string{"n", "12|"}; !reflect.DeepEqual(rows, want) {
		t.Fatalf("got %v, want %v", rows, want)
	}
}

// TestDiamondLowersToExpandIntersect pins the lowering for a two-closure
// diamond pattern and cross-checks the WCOJ plan against the oracle.
func TestDiamondLowersToExpandIntersect(t *testing.T) {
	f := triangleFixture(t)
	src := `MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(d:Person)
	        MATCH (a)-[:KNOWS]->(c:Person)-[:KNOWS]->(d)
	        RETURN count(*) AS n`
	p, err := cypher.Compile(src, f.Cat)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.String(), "ExpandIntersect") {
		t.Fatalf("diamond did not lower to ExpandIntersect: %s", p)
	}
	rows := paritytest.Check(t, f.Graph, func() plan.Plan { return p }, true)
	if len(rows) != 2 || rows[1] == "0|" {
		t.Fatalf("diamond count = %v, want one positive row", rows)
	}
}

// TestCyclicVarLengthCloses checks that a var-length relationship between
// two bound variables compiles to the hop-bounded ExpandInto, planned
// without statistics and with them, and returns, in every mode and at every worker count against the
// volcano oracle, the rows of the rewrite TestCyclicVarLengthRewriteWorkaround
// spells out: the closing endpoint under a fresh variable, equated by id.
func TestCyclicVarLengthCloses(t *testing.T) {
	f := triangleFixture(t)
	cm := plan.NewCostModel(f.Graph.Stats())
	if cm == nil {
		t.Fatal("sealed fixture published no statistics")
	}
	for _, c := range []struct{ closed, rewritten string }{
		{`MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS*1..2]->(a) RETURN count(*) AS n`,
			`MATCH (a:Person)-[:KNOWS]->(b:Person) MATCH (b)-[:KNOWS*1..2]->(c:Person) WHERE id(c) = id(a) RETURN count(*) AS n`},
		{`MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) MATCH (a)-[:KNOWS*2..2]->(c) RETURN count(*) AS n`,
			`MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) MATCH (a)-[:KNOWS*2..2]->(d:Person) WHERE id(d) = id(c) RETURN count(*) AS n`},
		{`MATCH (a:Person)-[:KNOWS*1..2]-(b:Person) MATCH (b)<-[:KNOWS*1..3]-(a) RETURN id(a) AS a, id(b) AS b ORDER BY a, b`,
			`MATCH (a:Person)-[:KNOWS*1..2]-(b:Person) MATCH (a)-[:KNOWS*1..3]->(c:Person) WHERE id(c) = id(b) RETURN id(a) AS a, id(b) AS b ORDER BY a, b`},
	} {
		for _, cost := range []*plan.CostModel{nil, cm} {
			closed, err := cypher.CompileWith(c.closed, f.Cat, cypher.Options{Cost: cost})
			if err != nil {
				t.Fatalf("compile %q (cost %v): %v", c.closed, cost != nil, err)
			}
			if !strings.Contains(closed.Plan.String(), "ExpandInto") {
				t.Fatalf("%q did not close with ExpandInto: %s", c.closed, closed.Plan)
			}
			rewritten, err := cypher.CompileWith(c.rewritten, f.Cat, cypher.Options{Cost: cost})
			if err != nil {
				t.Fatal(err)
			}
			got := paritytest.Check(t, f.Graph, func() plan.Plan { return closed.Plan }, true)
			want := paritytest.Check(t, f.Graph, func() plan.Plan { return rewritten.Plan }, true)
			if !reflect.DeepEqual(got, want) || len(got) < 2 || got[1] == "0|" {
				t.Fatalf("%q (cost %v) = %v, rewrite = %v", c.closed, cost != nil, got, want)
			}
		}
	}
	// A var-length edge from a variable back to itself: the search starts
	// there, at level 0, so no hop count matches, as none does in the rewrite.
	self, err := cypher.Compile(`MATCH (p:Person)-[:KNOWS*1..2]->(p) RETURN id(p)`, f.Cat)
	if err != nil {
		t.Fatal(err)
	}
	if rows := paritytest.Check(t, f.Graph, func() plan.Plan { return self }, true); len(rows) != 1 {
		t.Fatalf("self closure returned %v, want no rows", rows)
	}
}

// TestCyclicVarLengthRewriteWorkaround exercises the rewrite of a closing
// var-length edge as joins: bind the closing endpoint under a fresh variable
// in a separate MATCH and equate the ids in WHERE.
func TestCyclicVarLengthRewriteWorkaround(t *testing.T) {
	f := triangleFixture(t)
	rewritten := `MATCH (a:Person)-[:KNOWS]->(b:Person)
	        MATCH (b)-[:KNOWS*1..1]->(c:Person)
	        WHERE id(c) = id(a)
	        RETURN count(*) AS n`
	// The single-hop form of the same cycle is supported directly; both must
	// count the mutual KNOWS pairs (no parallel edges in the fixture).
	direct := `MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(a)
	        RETURN count(*) AS n`
	for _, mode := range []exec.Mode{exec.ModeFlat, exec.ModeFactorized, exec.ModeFused} {
		got := runCypher(t, f, mode, rewritten)
		want := runCypher(t, f, mode, direct)
		if got.NumRows() != 1 || want.NumRows() != 1 {
			t.Fatalf("mode %s: rows = %d / %d", mode, got.NumRows(), want.NumRows())
		}
		if got.Rows[0][0].I != want.Rows[0][0].I || want.Rows[0][0].I <= 0 {
			t.Fatalf("mode %s: rewrite = %d, direct cycle = %d", mode, got.Rows[0][0].I, want.Rows[0][0].I)
		}
	}
}

// fourP is a 4-vertex graph: label P, ext ids 1..4, one float property w.
func fourP(t *testing.T) (*catalog.Catalog, *storage.Graph) {
	t.Helper()
	cat := catalog.New()
	p := catalog.Must(cat.AddLabel("P", catalog.PropDef{Name: "w", Kind: vector.KindFloat64}))
	g := storage.NewGraph(cat)
	for i := int64(1); i <= 4; i++ {
		if _, err := g.AddVertex(p, i, vector.Float64(float64(i)/4)); err != nil {
			t.Fatal(err)
		}
	}
	g.SealCSR()
	return cat, g
}

// TestPaginationBounds pins SKIP/LIMIT at their edges, with and without
// ORDER BY, in every mode against the volcano oracle. LIMIT 0 used to answer
// every row under ORDER BY (OrderBy's Limit 0 means "sort everything") and one
// row without it once the limit ran on the f-Tree.
func TestPaginationBounds(t *testing.T) {
	cat, g := fourP(t)
	for _, c := range []struct {
		tail string
		rows int
	}{
		{"LIMIT 0", 0},
		{"SKIP 4 LIMIT 2", 0},
		{"SKIP 9", 0},
		{"LIMIT 9", 4},
		{"SKIP 1 LIMIT 9", 3},
	} {
		for _, order := range []string{"", "ORDER BY a "} {
			src := "MATCH (a:P) RETURN id(a) AS a " + order + c.tail
			p, err := cypher.Compile(src, cat)
			if err != nil {
				t.Fatal(err)
			}
			if rows := paritytest.Check(t, g, func() plan.Plan { return p }, order != ""); len(rows)-1 != c.rows {
				t.Errorf("%s: %d rows, want %d", src, len(rows)-1, c.rows)
			}
		}
	}
}

// TestComputedReturnKinds types computed RETURN columns from the expression:
// float when an operand is a float, integer otherwise. Every one used to be
// an integer, truncating id(a) * 2.5 to 2.
func TestComputedReturnKinds(t *testing.T) {
	cat, g := fourP(t)
	for _, c := range []struct {
		ret  string
		kind vector.Kind
		row1 string
	}{
		{"id(a) * 2.5", vector.KindFloat64, "2.5|"},
		{"a.w + 1", vector.KindFloat64, "1.25|"},
		{"id(a) + 1", vector.KindInt64, "2|"},
		{"id(a) / 2", vector.KindInt64, "0|"},
	} {
		src := "MATCH (a:P) WHERE id(a) = 1 RETURN " + c.ret + " AS x"
		p, err := cypher.Compile(src, cat)
		if err != nil {
			t.Fatal(err)
		}
		rows := paritytest.Check(t, g, func() plan.Plan { return p }, true)
		if want := []string{"x", c.row1}; !reflect.DeepEqual(rows, want) {
			t.Errorf("%s: %v, want %v", src, rows, want)
		}
		for _, mode := range []exec.Mode{exec.ModeFlat, exec.ModeFactorized, exec.ModeFused} {
			res, err := exec.New(mode).Run(g, p)
			if err != nil {
				t.Fatal(err)
			}
			if k := res.Block.Kinds[0]; k != c.kind {
				t.Errorf("%s (%s): column kind %s, want %s", src, mode, k, c.kind)
			}
		}
	}
}
