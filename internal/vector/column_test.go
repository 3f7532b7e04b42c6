package vector

import (
	"slices"
	"testing"
)

func TestColumnScalarRoundTrip(t *testing.T) {
	cases := []struct {
		kind Kind
		vals []Value
	}{
		{KindInt64, []Value{Int64(1), Int64(-7), Int64(1 << 40)}},
		{KindFloat64, []Value{Float64(0.5), Float64(-2.25)}},
		{KindString, []Value{String_("a"), String_(""), String_("hello")}},
		{KindBool, []Value{Bool(true), Bool(false)}},
		{KindDate, []Value{Date(0), Date(20000)}},
		{KindVID, []Value{VIDValue(0), VIDValue(12345)}},
	}
	for _, c := range cases {
		col := NewColumn("c", c.kind)
		for _, v := range c.vals {
			col.Append(v)
		}
		if col.Len() != len(c.vals) {
			t.Fatalf("%s: Len = %d, want %d", c.kind, col.Len(), len(c.vals))
		}
		for i, v := range c.vals {
			if got := col.Get(i); !Equal(got, v) {
				t.Fatalf("%s: Get(%d) = %v, want %v", c.kind, i, got, v)
			}
		}
	}
}

// TestColumnAppendVIDs is the VID column table: pieces appended in one copy
// each (an expand's batch pieces), in one group or several in turn, and the
// same rows again on the column a pooled Reinit recycled. Every state reads back per row and, for every sub-range, as one
// range.
func TestColumnAppendVIDs(t *testing.T) {
	cases := []struct {
		name   string
		shards [][][]VID // groups of pieces, appended in order
	}{
		{"empty", nil},
		{"one piece", [][][]VID{{{1, 2, 3}}}},
		{"pieces", [][][]VID{{{1, 2, 3}, {}, {7}, {9, 10}}}},
		{"shards", [][][]VID{{{1, 2}}, {}, {{3}, {4, 5, 6}}, {{7}}}},
	}
	check := func(t *testing.T, what string, c *Column, want []VID) {
		t.Helper()
		if c.Len() != len(want) || !slices.Equal(c.VIDs(), want) {
			t.Fatalf("%s: rows %v, want %v", what, c.VIDs(), want)
		}
		for i, w := range want {
			if got := c.VIDAt(i); got != w {
				t.Fatalf("%s: VIDAt(%d) = %d, want %d", what, i, got, w)
			}
		}
		for lo := 0; lo <= len(want); lo++ {
			for hi := lo; hi <= len(want); hi++ {
				got := c.AppendVIDRange([]VID{42}, lo, hi)
				if got[0] != 42 || !slices.Equal(got[1:], want[lo:hi]) {
					t.Fatalf("%s: AppendVIDRange(%d,%d) = %v, want 42 then %v", what, lo, hi, got, want[lo:hi])
				}
			}
		}
		if mb := c.MemBytes(); mb < 4*len(want) {
			t.Fatalf("%s: MemBytes %d below the %d-row payload", what, mb, len(want))
		}
	}
	recycled := NewColumn("old", KindString)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want []VID
			out := NewColumn("n", KindVID)
			for _, pieces := range tc.shards {
				for _, pc := range pieces {
					out.AppendVIDs(pc)
					want = append(want, pc...)
				}
			}
			check(t, "appended", out, want)

			// The previous case's column, recycled as a pool would.
			recycled.Reinit("n", KindVID)
			if recycled.Len() != 0 {
				t.Fatalf("Reinit left %d rows", recycled.Len())
			}
			for _, pieces := range tc.shards {
				for _, pc := range pieces {
					recycled.AppendVIDs(pc)
				}
			}
			check(t, "recycled", recycled, want)

			// The column owns its copy: the appended slices stay its own.
			if len(want) > 0 {
				src := slices.Clone(want)
				own := NewColumn("n", KindVID)
				own.AppendVIDs(src)
				src[0]++
				if own.VIDAt(0) != want[0] {
					t.Fatal("AppendVIDs aliases its argument")
				}
			}
		})
	}
}

func TestColumnReset(t *testing.T) {
	col := NewColumn("x", KindInt64)
	for i := 0; i < 100; i++ {
		col.AppendInt64(int64(i))
	}
	col.Reset()
	if col.Len() != 0 {
		t.Fatalf("Len after Reset = %d", col.Len())
	}
	col.AppendInt64(42)
	if got := col.Int64s()[0]; got != 42 {
		t.Fatalf("value after reuse = %d", got)
	}
}

// TestReinitDropsUsedRowsOnly is white-box on the invariant Reinit documents:
// pointer-bearing slots at or past the length are nil (rows a truncation
// retired carry the poison in assert builds), recycling pays for the rows the
// last owner used, and a second Reinit of the empty column touches nothing.
func TestReinitDropsUsedRowsOnly(t *testing.T) {
	const n = 1000
	// Rows [0,n) get retired below: zeroed, or stamped in assert builds.
	stamped := func(i int) bool { return assertEnabled && i < n }
	str := NewColumn("s", KindString)
	for i := 0; i < n; i++ {
		str.AppendString("x")
	}
	if got := str.Reinit("", KindInvalid); got != n*16 {
		t.Fatalf("string column: Reinit cleared %d bytes, want %d", got, n*16)
	}
	if cap(str.str) < n {
		t.Fatal("Reinit dropped the capacity it is meant to retain")
	}
	for i, v := range str.str[:cap(str.str)] {
		want := ""
		if stamped(i) {
			want = poisonStr
		}
		if v != want {
			t.Fatalf("string slot %d of %d holds %q after Reinit, want %q", i, cap(str.str), v, want)
		}
	}
	if got := str.Reinit("again", KindString); got != 0 {
		t.Fatalf("Reinit of an empty column cleared %d bytes, want 0", got)
	}

	// Reset and a shrinking Grow keep the same invariant.
	for i := 0; i < n; i++ {
		str.AppendString("y")
	}
	str.Grow(10)
	str.Reset()
	for i, v := range str.str[:cap(str.str)] {
		if assertEnabled && i < 10 {
			continue // retired by Reset: stamped
		}
		if v != "" {
			t.Fatalf("string slot %d holds %q after Grow(10)+Reset", i, v)
		}
	}
}

func TestColumnClone(t *testing.T) {
	col := NewColumn("s", KindString)
	col.AppendString("a")
	col.AppendString("b")
	cl := col.Clone()
	cl.AppendString("c")
	if col.Len() != 2 || cl.Len() != 3 {
		t.Fatalf("clone aliases original: orig=%d clone=%d", col.Len(), cl.Len())
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int64(1), Int64(2), -1},
		{Int64(2), Int64(2), 0},
		{Int64(3), Int64(2), 1},
		{Float64(1.5), Float64(2.5), -1},
		{String_("abc"), String_("abd"), -1},
		{Bool(false), Bool(true), -1},
		{Date(10), Date(20), -1},
		{Int64(5), Date(6), -1}, // int-like cross compare
		{VIDValue(4), Int64(4), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int64(-3), "-3"},
		{Float64(1.5), "1.5"},
		{String_("x"), "x"},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{VIDValue(9), "v9"},
		{Value{}, "<invalid>"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestKindWidth(t *testing.T) {
	if KindInt64.Width() != 8 || KindVID.Width() != 4 || KindBool.Width() != 1 {
		t.Fatal("kind widths changed; memory accounting depends on them")
	}
}

// TestColumnNullBitmap holds the validity bitmap: it stays empty until the
// null Value{} is appended or set, Get reads a null row as Value{} and every
// other row as before, a dictionary column codes a null as the empty string, and
// Clone and the row gather (Gather) carry the nulls while Reset, Reinit and
// Grow clear them.
func TestColumnNullBitmap(t *testing.T) {
	for _, c := range []struct {
		col *Column
		val Value
	}{
		{NewColumn("i", KindInt64), Int64(7)},
		{NewColumn("d", KindDate), Date(3)},
		{NewColumn("f", KindFloat64), Float64(1.5)},
		{NewColumn("s", KindString), String_("x")},
		{NewDictColumn("c", NewDict()), String_("x")},
		{NewColumn("b", KindBool), Bool(true)},
		{NewColumn("v", KindVID), VIDValue(9)},
	} {
		col := c.col
		for range 70 {
			col.Append(c.val)
		}
		if col.HasNulls() {
			t.Fatalf("%s: bitmap set before a null was written", col.Kind)
		}
		col.Append(Value{}) // row 70, in the bitmap's second word
		col.Append(c.val)
		col.Set(3, Value{})
		want := func(i int) Value {
			if i == 3 || i == 70 {
				return Value{}
			}
			return c.val
		}
		check := func(what string, got *Column) {
			t.Helper()
			if !got.HasNulls() || got.Len() != 72 {
				t.Fatalf("%s %s: HasNulls %v, %d rows", what, col.Kind, got.HasNulls(), got.Len())
			}
			for i := range 72 {
				if got.Get(i) != want(i) || got.IsNull(i) != (want(i) == Value{}) {
					t.Fatalf("%s %s: row %d is %v (null %v), want %v", what, col.Kind, i, got.Get(i), got.IsNull(i), want(i))
				}
			}
		}
		check("set", col)
		if col.DictEncoded() && (col.Codes()[70] != 0 || col.Dict().Len() != 2) {
			t.Fatalf("a null row holds code %d in a dictionary of %d strings, want the pre-interned \"\"", col.Codes()[70], col.Dict().Len())
		}
		e := col.Clone()
		check("clone", e)
		rows := make([]int32, 72)
		for i := range rows {
			rows[i] = int32(i)
		}
		g := NewColumn("g", col.Kind)
		g.Gather(col, rows)
		check("gather", g)

		col.Set(3, c.val)
		if col.IsNull(3) || col.Get(3) != c.val {
			t.Fatalf("%s: Set of a value left row 3 null", col.Kind)
		}
		col.Reset()
		col.Append(c.val)
		if col.HasNulls() || col.Get(0) != c.val {
			t.Fatalf("%s: Reset kept the bitmap", col.Kind)
		}
		g.Reinit("g", col.Kind)
		e.Grow(72)
		if g.HasNulls() || e.HasNulls() || e.Get(70) == (Value{}) {
			t.Fatalf("%s: Reinit or Grow kept the bitmap", col.Kind)
		}
	}
}
