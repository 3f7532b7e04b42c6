package core

import (
	"strings"
	"testing"

	"ges/internal/vector"
)

func intCol(name string, vals ...int64) *vector.Column {
	c := vector.NewColumn(name, vector.KindInt64)
	for _, v := range vals {
		c.AppendInt64(v)
	}
	return c
}

func TestFBlockBasics(t *testing.T) {
	b := NewFBlock(intCol("a", 1, 2, 3), intCol("b", 4, 5, 6))
	if b.NumRows() != 3 || b.NumCols() != 2 {
		t.Fatalf("shape = %dx%d", b.NumRows(), b.NumCols())
	}
	if got := b.Schema(); strings.Join(got, ",") != "a,b" {
		t.Fatalf("schema = %v", got)
	}
	if b.ColumnByName("b") == nil || b.ColumnByName("z") != nil {
		t.Fatal("ColumnByName broken")
	}
	tup := b.Tuple(1)
	if len(tup) != 2 || tup[0].I != 2 || tup[1].I != 5 {
		t.Fatalf("Tuple(1) = %v", tup)
	}
	if !strings.Contains(b.String(), "FBlock{a,b}x3") {
		t.Fatalf("String = %q", b.String())
	}
}

func TestFBlockCardinalityPanics(t *testing.T) {
	assertPanics(t, "NewFBlock mismatch", func() {
		NewFBlock(intCol("a", 1, 2), intCol("b", 1))
	})
	assertPanics(t, "AddColumn mismatch", func() {
		b := NewFBlock(intCol("a", 1, 2))
		b.AddColumn(intCol("b", 1))
	})
}

func assertPanics(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	fn()
}

func TestFBlockReset(t *testing.T) {
	b := NewFBlock(intCol("a", 1, 2, 3))
	b.Reset()
	if b.NumRows() != 0 {
		t.Fatalf("rows after Reset = %d", b.NumRows())
	}
	b.Column(0).AppendInt64(9)
	if b.Tuple(0)[0].I != 9 {
		t.Fatal("block unusable after Reset")
	}
}

func TestFlatBlockAppendCopies(t *testing.T) {
	fb := NewFlatBlock([]string{"x"}, []vector.Kind{vector.KindInt64})
	row := []vector.Value{vector.Int64(1)}
	fb.Append(row)
	row[0] = vector.Int64(99)
	if fb.Rows[0][0].I != 1 {
		t.Fatal("Append must copy the caller's buffer")
	}
}

func TestFlatBlockMemBytesCountsPayload(t *testing.T) {
	small := NewFlatBlock([]string{"s"}, []vector.Kind{vector.KindString})
	small.AppendOwned([]vector.Value{vector.String_("ab")})
	big := NewFlatBlock([]string{"s"}, []vector.Kind{vector.KindString})
	big.AppendOwned([]vector.Value{vector.String_(strings.Repeat("x", 10_000))})
	if big.MemBytes() <= small.MemBytes()+9000 {
		t.Fatalf("string payload not accounted: %d vs %d", small.MemBytes(), big.MemBytes())
	}
}

func TestFlatBlockSchemaMismatchPanics(t *testing.T) {
	assertPanics(t, "NewFlatBlock", func() {
		NewFlatBlock([]string{"a"}, nil)
	})
}
