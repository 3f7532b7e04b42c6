package expr_test

import (
	"strings"
	"testing"
	"testing/quick"

	"ges/internal/core"
	"ges/internal/expr"
	"ges/internal/vector"
)

// block builds a one-node block with int64 column "a" and string column "s".
func block(av []int64, sv []string) *core.FBlock {
	a := vector.NewColumn("a", vector.KindInt64)
	for _, v := range av {
		a.AppendInt64(v)
	}
	s := vector.NewColumn("s", vector.KindString)
	for _, v := range sv {
		s.AppendString(v)
	}
	return core.NewFBlock(a, s)
}

func TestComparisonsOnBlock(t *testing.T) {
	b := block([]int64{1, 5, 10}, []string{"x", "y", "z"})
	cases := []struct {
		e    expr.Expr
		want []bool
	}{
		{expr.Gt(expr.C("a"), expr.LInt(4)), []bool{false, true, true}},
		{expr.Ge(expr.C("a"), expr.LInt(5)), []bool{false, true, true}},
		{expr.Lt(expr.C("a"), expr.LInt(5)), []bool{true, false, false}},
		{expr.Le(expr.C("a"), expr.LInt(5)), []bool{true, true, false}},
		{expr.Eq(expr.C("a"), expr.LInt(5)), []bool{false, true, false}},
		{expr.Ne(expr.C("a"), expr.LInt(5)), []bool{true, false, true}},
		{expr.Eq(expr.C("s"), expr.LStr("y")), []bool{false, true, false}},
		{expr.And{L: expr.Gt(expr.C("a"), expr.LInt(1)), R: expr.Lt(expr.C("a"), expr.LInt(10))},
			[]bool{false, true, false}},
		{expr.Or{L: expr.Eq(expr.C("a"), expr.LInt(1)), R: expr.Eq(expr.C("a"), expr.LInt(10))},
			[]bool{true, false, true}},
		{expr.Not{X: expr.Eq(expr.C("a"), expr.LInt(1))}, []bool{false, true, true}},
		{expr.In{X: expr.C("a"), List: []vector.Value{vector.Int64(1), vector.Int64(10)}},
			[]bool{true, false, true}},
		{expr.StrPred{Op: expr.Contains, L: expr.C("s"), R: "y"}, []bool{false, true, false}},
		{expr.StrPred{Op: expr.StartsWith, L: expr.C("s"), R: "z"}, []bool{false, false, true}},
		{expr.StrPred{Op: expr.EndsWith, L: expr.C("s"), R: "x"}, []bool{true, false, false}},
	}
	for _, c := range cases {
		get, err := expr.BindBlock(c.e, b)
		if err != nil {
			t.Fatalf("%s: %v", c.e, err)
		}
		for i, want := range c.want {
			if got := get(i).AsBool(); got != want {
				t.Errorf("%s at row %d = %v, want %v", c.e, i, got, want)
			}
		}
	}
}

func TestArithmetic(t *testing.T) {
	b := block([]int64{6}, []string{""})
	cases := []struct {
		op   expr.ArithOp
		r    expr.Expr
		want int64
	}{
		{expr.Add, expr.LInt(4), 10},
		{expr.Sub, expr.LInt(4), 2},
		{expr.Mul, expr.LInt(4), 24},
		{expr.Div, expr.LInt(3), 2},
		{expr.Div, expr.LInt(0), 0}, // guarded division
	}
	for _, c := range cases {
		get, err := expr.BindBlock(expr.Arith{Op: c.op, L: expr.C("a"), R: c.r}, b)
		if err != nil {
			t.Fatal(err)
		}
		if got := get(0).I; got != c.want {
			t.Errorf("6 %s %s = %d, want %d", c.op, c.r, got, c.want)
		}
	}
	// Mixed float arithmetic promotes.
	get, err := expr.BindBlock(expr.Arith{Op: expr.Add, L: expr.C("a"), R: expr.Lit{Val: vector.Float64(0.5)}}, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := get(0); got.Kind != vector.KindFloat64 || got.F != 6.5 {
		t.Fatalf("6 + 0.5 = %v", got)
	}
}

// TestBindFlat binds a predicate to the de-factored form: the one block of a
// de-factored tree, bound like any other. A null row reads as vector.Value{}
// and compares as it did in a boxed row.
func TestBindFlat(t *testing.T) {
	a := vector.NewColumn("a", vector.KindInt64)
	a.Append(vector.Int64(7))
	a.Append(vector.Value{})
	get, err := expr.BindBlock(expr.Gt(expr.C("a"), expr.LInt(3)), core.NewFBlock(a))
	if err != nil {
		t.Fatal(err)
	}
	if !get(0).AsBool() {
		t.Fatal("7 > 3 must hold")
	}
	if get(1).AsBool() {
		t.Fatal("null > 3 must not hold")
	}
}

func TestBindUnknownColumn(t *testing.T) {
	b := block([]int64{1}, []string{""})
	if _, err := expr.BindBlock(expr.C("ghost"), b); err == nil {
		t.Fatal("unknown column must fail to bind")
	}
	if _, err := expr.BindBlock(expr.C("ghost"), core.NewFBlock()); err == nil {
		t.Fatal("unknown column of an empty block must fail to bind")
	}
}

func TestColumnsCollection(t *testing.T) {
	e := expr.And{
		L: expr.Gt(expr.C("x"), expr.C("y")),
		R: expr.In{X: expr.C("z"), List: nil},
	}
	got := e.Columns(nil)
	want := "x,y,z"
	if strings.Join(got, ",") != want {
		t.Fatalf("Columns = %v, want %s", got, want)
	}
}

func TestStringRendering(t *testing.T) {
	e := expr.And{
		L: expr.Gt(expr.C("a"), expr.LInt(3)),
		R: expr.StrPred{Op: expr.Contains, L: expr.C("s"), R: "q"},
	}
	s := e.String()
	for _, frag := range []string{"a", ">", "3", "AND", "CONTAINS"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String() = %q missing %q", s, frag)
		}
	}
}

// Property: comparison evaluation agrees with direct integer comparison.
func TestComparisonProperty(t *testing.T) {
	f := func(vals []int64, threshold int64) bool {
		if len(vals) == 0 {
			return true
		}
		col := vector.NewColumn("a", vector.KindInt64)
		for _, v := range vals {
			col.AppendInt64(v)
		}
		b := core.NewFBlock(col)
		get, err := expr.BindBlock(expr.Le(expr.C("a"), expr.LInt(threshold)), b)
		if err != nil {
			return false
		}
		for i, v := range vals {
			if get(i).AsBool() != (v <= threshold) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
