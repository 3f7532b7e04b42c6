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

func TestLazyColumnSegments(t *testing.T) {
	col := NewLazyVIDColumn("n")
	segA := []VID{1, 2, 3}
	segB := []VID{7}
	segC := []VID{9, 10}
	s, e := col.AppendSegment(segA)
	if s != 0 || e != 3 {
		t.Fatalf("segment A range [%d,%d), want [0,3)", s, e)
	}
	s, e = col.AppendSegment(segB)
	if s != 3 || e != 4 {
		t.Fatalf("segment B range [%d,%d), want [3,4)", s, e)
	}
	col.AppendSegment(segC)
	if col.Len() != 6 {
		t.Fatalf("Len = %d, want 6", col.Len())
	}
	want := []VID{1, 2, 3, 7, 9, 10}
	for i, w := range want {
		if got := col.VIDAt(i); got != w {
			t.Fatalf("VIDAt(%d) = %d, want %d", i, got, w)
		}
	}
	var walked []VID
	col.EachVID(func(i int, v VID) {
		if i != len(walked) {
			t.Fatalf("EachVID index %d out of order", i)
		}
		walked = append(walked, v)
	})
	for i, w := range want {
		if walked[i] != w {
			t.Fatalf("EachVID walk mismatch at %d", i)
		}
	}
	// Every sub-range, read as one range, equals the per-row reads — on the
	// lazy column and on its materialized twin.
	flat := NewColumn("n", KindVID)
	for _, v := range want {
		flat.AppendVID(v)
	}
	for lo := 0; lo <= len(want); lo++ {
		for hi := lo; hi <= len(want); hi++ {
			for _, c := range []*Column{col, flat} {
				got := c.AppendVIDRange([]VID{42}, lo, hi)
				if got[0] != 42 || !slices.Equal(got[1:], want[lo:hi]) {
					t.Fatalf("AppendVIDRange(%d,%d) lazy=%v = %v, want 42 then %v", lo, hi, c.Lazy(), got, want[lo:hi])
				}
			}
		}
	}
}

func TestLazyColumnMemAccounting(t *testing.T) {
	lazy := NewLazyVIDColumn("n")
	seg := make([]VID, 10000)
	lazy.AppendSegment(seg)
	lazyBytes := lazy.MemBytes()

	mat := NewColumn("n", KindVID)
	for _, v := range seg {
		mat.AppendVID(v)
	}
	matBytes := mat.MemBytes()
	if lazyBytes >= matBytes {
		t.Fatalf("lazy column (%dB) should be far cheaper than materialized (%dB)", lazyBytes, matBytes)
	}
	if matBytes < 10000*4 {
		t.Fatalf("materialized accounting %dB below payload size", matBytes)
	}
	// Pointer-based join accounting: lazy cost is per segment, not per row.
	if lazyBytes > 200 {
		t.Fatalf("lazy accounting %dB too large for a single segment header", lazyBytes)
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
	lazy := NewLazyVIDColumn("l")
	seg := []VID{1, 2}
	for i := 0; i < n; i++ {
		str.AppendString("x")
		lazy.AppendSegment(seg)
	}
	if got := str.Reinit("", KindInvalid); got != n*16 {
		t.Fatalf("string column: Reinit cleared %d bytes, want %d", got, n*16)
	}
	if got := lazy.Reinit("", KindInvalid); got != n*24 {
		t.Fatalf("lazy column: Reinit cleared %d bytes, want %d", got, n*24)
	}
	if cap(str.str) < n || cap(lazy.segs) < n {
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
	for i, v := range lazy.segs[:cap(lazy.segs)] {
		if isPoison := len(v) == 1 && &v[0] == &poisonSeg[0]; isPoison != stamped(i) || (!isPoison && v != nil) {
			t.Fatalf("segment slot %d of %d holds %v after Reinit", i, cap(lazy.segs), v)
		}
	}
	if a, b := str.Reinit("again", KindString), lazy.Reinit("again", KindVID); a != 0 || b != 0 {
		t.Fatalf("Reinit of an empty column cleared %d and %d bytes, want 0", a, b)
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
