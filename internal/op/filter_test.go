package op_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ges/internal/catalog"
	"ges/internal/core"
	"ges/internal/exec"
	"ges/internal/expr"
	"ges/internal/op"
	"ges/internal/plan"
	"ges/internal/storage"
	"ges/internal/vector"
)

// kernelRows is one set of property values — i (int64), d (date), f
// (float64), s (string) — spanning many selection words, served both as
// the columns of an f-Block (Filter) and as vertex properties of a graph
// (the fused VertexPred).
type kernelRows struct {
	i, d []int64
	f    []float64
	s    []string
}

// "" is code 0 of every dictionary: a lookup miss must not read as it.
var kernelStrings = []string{"red", "green", "blue", "grey", ""}

func newKernelRows(n int, rng *rand.Rand) kernelRows {
	var r kernelRows
	for k := 0; k < n; k++ {
		// Values rise with the row, so a threshold splits the rows in two.
		r.i = append(r.i, int64(4*k+rng.Intn(8)))
		r.d = append(r.d, int64(19000+k/3+rng.Intn(3)))
		r.f = append(r.f, float64(k%100)/10)
		r.s = append(r.s, kernelStrings[rng.Intn(len(kernelStrings))])
	}
	return r
}

// block returns the rows as an f-Block, with a dictionary-encoded string
// column when dict.
func (r kernelRows) block(dict bool) *core.FBlock {
	i := vector.NewColumn("i", vector.KindInt64)
	d := vector.NewColumn("d", vector.KindDate)
	f := vector.NewColumn("f", vector.KindFloat64)
	s := vector.NewColumn("s", vector.KindString)
	if dict {
		s.EnableDict()
	}
	for k := range r.i {
		i.AppendInt64(r.i[k])
		d.AppendInt64(r.d[k])
		f.AppendFloat64(r.f[k])
		s.AppendString(r.s[k])
	}
	return core.NewFBlock(i, d, f, s)
}

// reference evaluates pred row by row with the compiled closure over plain
// columns — the semantics every kernel must reproduce.
func (r kernelRows) reference(t testing.TB, pred expr.Expr) []bool {
	t.Helper()
	b := r.block(false)
	get, err := expr.BindBlock(pred, b)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]bool, b.NumRows())
	for k := range out {
		out[k] = get(k).AsBool()
	}
	return out
}

// filterMismatch runs Filter over the rows with the selection pre-cleared
// where pre is false, and reports the first row whose selection bit differs
// from pre && the reference.
func filterMismatch(t testing.TB, r kernelRows, pred expr.Expr, pre func(int) bool) string {
	t.Helper()
	want := r.reference(t, pred)
	ft := core.NewFTree(r.block(true))
	for k := range want {
		if !pre(k) {
			ft.Root.Sel.Clear(k)
		}
	}
	if _, err := (&op.Filter{Pred: pred}).Execute(&op.Ctx{}, ft); err != nil {
		t.Fatal(err)
	}
	for k, w := range want {
		if got := ft.Root.Sel.Get(k); got != (w && pre(k)) {
			return fmt.Sprintf("row %d (i=%d d=%d f=%g s=%q, preselected %v): kept %v, reference %v",
				k, r.i[k], r.d[k], r.f[k], r.s[k], pre(k), got, w)
		}
	}
	return ""
}

// kernelGraph stores the rows as vertices 0..n-1 of one label and adds, per
// run length, a hub whose KNOWS run reaches that many of them spread across
// every row.
func kernelGraph(t *testing.T, r kernelRows, runs []int) (*storage.Graph, catalog.LabelID, catalog.EdgeTypeID, map[int][]vector.VID) {
	t.Helper()
	cat := catalog.New()
	label := catalog.Must(cat.AddLabel("V",
		catalog.PropDef{Name: "i", Kind: vector.KindInt64},
		catalog.PropDef{Name: "d", Kind: vector.KindDate},
		catalog.PropDef{Name: "f", Kind: vector.KindFloat64},
		catalog.PropDef{Name: "s", Kind: vector.KindString}))
	knows := catalog.Must(cat.AddEdgeType("KNOWS"))
	g := storage.NewGraph(cat)
	n := len(r.i)
	for k := 0; k < n; k++ {
		if _, err := g.AddVertex(label, int64(k), vector.Int64(r.i[k]), vector.Date(r.d[k]),
			vector.Float64(r.f[k]), vector.String_(r.s[k])); err != nil {
			t.Fatal(err)
		}
	}
	targets := map[int][]vector.VID{}
	for _, l := range runs {
		hub, err := g.AddVertex(label, int64(n+l), vector.Int64(0), vector.Date(0), vector.Float64(0), vector.String_(""))
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < l; j++ {
			v := vector.VID(j * n / l)
			if err := g.AddEdge(knows, hub, v); err != nil {
				t.Fatal(err)
			}
			targets[l] = append(targets[l], v)
		}
	}
	g.SealCSR()
	return g, label, knows, targets
}

// TestPredicateKernels holds the three conjunct kernels — int/date range,
// dictionary-code set, compiled closure — to the compiled closure row by
// row, through Filter (with a pre-cleared selection) and through the fused
// VertexPred on candidate runs from empty to one spanning every row.
func TestPredicateKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const n = 3*2048 + 123 // the last selection word ragged
	rows := newKernelRows(n, rng)
	runs := []int{0, 1, 5, 16, 17, 400}
	g, label, knows, targets := kernelGraph(t, rows, runs)

	type kcase struct {
		name string
		pred expr.Expr
	}
	var cases []kcase
	ops := []expr.CmpOp{expr.LT, expr.LE, expr.GT, expr.GE, expr.EQ, expr.NE}
	for _, col := range []string{"i", "d"} {
		vals := rows.i
		lit := expr.LInt
		if col == "d" {
			vals, lit = rows.d, expr.LDate
		}
		thresholds := []int64{math.MinInt64, math.MaxInt64, vals[0] - 1, vals[0], vals[n/2], vals[n-1], vals[n-1] + 1}
		for _, o := range ops {
			for _, th := range thresholds {
				cases = append(cases,
					kcase{fmt.Sprintf("%s %v %d", col, o, th), expr.Cmp{Op: o, L: expr.C(col), R: lit(th)}},
					kcase{fmt.Sprintf("%d %v %s", th, o, col), expr.Cmp{Op: o, L: lit(th), R: expr.C(col)}})
			}
		}
	}
	str := func(s string) vector.Value { return vector.String_(s) }
	for _, lit := range []string{"red", "purple"} { // interned, never interned
		cases = append(cases,
			kcase{"s = " + lit, expr.Eq(expr.C("s"), expr.LStr(lit))},
			kcase{"s <> " + lit, expr.Ne(expr.C("s"), expr.LStr(lit))},
			kcase{lit + " = s", expr.Eq(expr.LStr(lit), expr.C("s"))},
			kcase{lit + " <> s", expr.Ne(expr.LStr(lit), expr.C("s"))})
	}
	cases = append(cases,
		kcase{"s IN [red blue]", expr.In{X: expr.C("s"), List: []vector.Value{str("red"), str("blue")}}},
		kcase{"s IN [purple]", expr.In{X: expr.C("s"), List: []vector.Value{str("purple")}}},
		kcase{"s IN [grey purple 3]", expr.In{X: expr.C("s"), List: []vector.Value{str("grey"), str("purple"), vector.Int64(3)}}},
		kcase{"s IN []", expr.In{X: expr.C("s")}},
		kcase{"f < 5.5", expr.Lt(expr.C("f"), expr.Lit{Val: vector.Float64(5.5)})},
		kcase{"f >= 3", expr.Ge(expr.C("f"), expr.LInt(3))},
		kcase{"s CONTAINS re", expr.StrPred{Op: expr.Contains, L: expr.C("s"), R: "re"}},
		kcase{"i < mid AND s CONTAINS e", expr.And{L: expr.Lt(expr.C("i"), expr.LInt(rows.i[n/2])),
			R: expr.StrPred{Op: expr.Contains, L: expr.C("s"), R: "e"}}},
		kcase{"d >= a AND d < b", expr.And{L: expr.Ge(expr.C("d"), expr.LDate(rows.d[n/5])),
			R: expr.Lt(expr.C("d"), expr.LDate(rows.d[4*n/5]))}},
		kcase{"s IN [red green] AND i >= mid AND f < 7", expr.And{
			L: expr.And{L: expr.In{X: expr.C("s"), List: []vector.Value{str("red"), str("green")}},
				R: expr.Ge(expr.C("i"), expr.LInt(rows.i[n/2]))},
			R: expr.Lt(expr.C("f"), expr.Lit{Val: vector.Float64(7)})}},
	)

	// Every fifth row and a 300-row stretch are cleared before the filter
	// runs.
	pre := func(k int) bool { return k%5 != 0 && (k < 2048 || k >= 2048+300) }
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if msg := filterMismatch(t, rows, c.pred, pre); msg != "" {
				t.Fatalf("Filter: %s", msg)
			}

			want := rows.reference(t, c.pred)
			for _, l := range runs {
				var expect []vector.VID
				for _, v := range targets[l] {
					if want[v] {
						expect = append(expect, v)
					}
				}
				for _, mode := range []exec.Mode{exec.ModeFactorized, exec.ModeFlat} {
					res, err := exec.New(mode).Run(g, plan.Plan{
						&op.NodeByIdSeek{Var: "h", Label: label, ExtID: int64(n + l)},
						&op.Expand{From: "h", To: "v", Et: knows, Dir: catalog.Out, DstLabel: label,
							VertexPred: op.VertexPropPred(c.pred)},
						&op.Defactor{Cols: []string{"v"}},
					})
					if err != nil {
						t.Fatal(err)
					}
					var got []vector.VID
					for _, row := range res.Block.Rows {
						got = append(got, row[0].AsVID())
					}
					if fmt.Sprint(got) != fmt.Sprint(expect) {
						t.Fatalf("fused, run of %d, %s: kept %v, reference %v", l, mode, got, expect)
					}
				}
			}
		})
	}
}

// TestFusedExpandPrunesDeadParents: after a fused Expand, a parent row whose
// run kept no neighbor — an empty run, or one the predicate emptied — is
// invalid, so later expands from its ancestors skip it. Only the hub whose
// run holds the one accepted vertex stays valid.
func TestFusedExpandPrunesDeadParents(t *testing.T) {
	const n = 200
	rows := newKernelRows(n, rand.New(rand.NewSource(5)))
	g, label, knows, targets := kernelGraph(t, rows, []int{3, 40})
	keepExt := int64(targets[40][1]) // vertex k has external id k; not in the run of 3
	hub, _ := g.VertexByExt(label, n+40)
	ctx := &op.Ctx{View: g}
	ch, err := (&op.NodeScan{Var: "v", Label: label}).Execute(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	ch, err = (&op.Expand{From: "v", To: "w", Et: knows, Dir: catalog.Out, DstLabel: label,
		VertexPred: op.VertexPropPred(expr.Eq(expr.C(op.ExtIDProp), expr.LInt(keepExt)))}).Execute(ctx, ch)
	if err != nil {
		t.Fatal(err)
	}
	root := ch.Root
	vids := root.Block.ColumnByName("v")
	for i := 0; i < root.Block.NumRows(); i++ {
		if v := vids.VIDAt(i); root.Sel.Get(i) != (v == hub) {
			t.Fatalf("parent %d (hub %v): valid = %v after the fused expand", v, v == hub, root.Sel.Get(i))
		}
	}
}

// FuzzPredicateKernels draws a random int/date column, comparison, threshold,
// operand order and pre-cleared selection, plus a dictionary column with a
// random literal, and holds Filter's kernels to the compiled closure.
func FuzzPredicateKernels(f *testing.F) {
	f.Add(int64(1), uint8(0), int64(0), false, uint64(math.MaxUint64), "red")
	f.Add(int64(2), uint8(5), int64(math.MinInt64), true, uint64(0xF0F0), "purple")
	f.Add(int64(3), uint8(13), int64(math.MaxInt64), false, uint64(0xAAAA5555), "")
	f.Add(int64(4), uint8(26), int64(9000), true, uint64(1<<63), "blue")
	f.Add(int64(5), uint8(40), int64(-7), false, uint64(0x0123456789ABCDEF), "grey")
	f.Fuzz(func(t *testing.T, seed int64, opSel uint8, threshold int64, mirrored bool, selMask uint64, lit string) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6144)
		rows := newKernelRows(n, rng)
		if rng.Intn(4) == 0 {
			rows.i[rng.Intn(n)] = math.MinInt64
			rows.i[rng.Intn(n)] = math.MaxInt64
		}
		ops := []expr.CmpOp{expr.LT, expr.LE, expr.GT, expr.GE, expr.EQ, expr.NE}
		col, mk := "i", expr.LInt
		if opSel&8 != 0 {
			col, mk = "d", expr.LDate
		}
		var intPred expr.Expr = expr.Cmp{Op: ops[int(opSel)%len(ops)], L: expr.C(col), R: mk(threshold)}
		if mirrored {
			intPred = expr.Cmp{Op: ops[int(opSel)%len(ops)], L: mk(threshold), R: expr.C(col)}
		}
		var strPred expr.Expr
		switch (opSel >> 4) % 3 {
		case 0:
			strPred = expr.Eq(expr.C("s"), expr.LStr(lit))
		case 1:
			strPred = expr.Ne(expr.C("s"), expr.LStr(lit))
		default:
			strPred = expr.In{X: expr.C("s"), List: []vector.Value{vector.String_(lit), vector.String_("blue")}}
		}
		pre := func(k int) bool { return selMask&(1<<(k%64)) != 0 }
		for _, pred := range []expr.Expr{intPred, strPred, expr.And{L: intPred, R: strPred}} {
			if msg := filterMismatch(t, rows, pred, pre); msg != "" {
				t.Fatalf("%s: %s", pred, msg)
			}
		}
	})
}

// TestFilterVIDColumn filters a node on its VID column.
func TestFilterVIDColumn(t *testing.T) {
	vids := vector.NewColumn("v", vector.KindVID)
	vids.AppendVIDs([]vector.VID{1, 2, 3})
	ft := core.NewFTree(core.NewFBlock(vids))
	_, err := (&op.Filter{Pred: expr.Gt(expr.C("v"), expr.LInt(1))}).Execute(&op.Ctx{}, ft)
	if err != nil {
		t.Fatal(err)
	}
	if got := ft.Root.Sel.Count(); got != 2 {
		t.Fatalf("valid rows = %d, want 2", got)
	}
}
