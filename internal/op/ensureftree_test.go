package op

import (
	"slices"
	"testing"

	"ges/internal/core"
	"ges/internal/storage"
	"ges/internal/vector"
)

// TestFlatChunkIsOneNodeTree holds the de-factored form: a one-node tree
// with a column of every kind — a NilVID row, a dictionary-coded string and
// a null row included — is de-factored already (defactor returns it as it
// is), and de-factoring it narrowed, or with a second node under it, gives
// one node whose boxed rows (core.FTree.DefactorAll) are the rows the tree
// was built from, in order. So does an empty tree. Both run without an arena
// and on a recycling one.
func TestFlatChunkIsOneNodeTree(t *testing.T) {
	names := []string{"v", "i", "d", "f", "s", "b", "c"}
	kinds := []vector.Kind{vector.KindVID, vector.KindInt64, vector.KindDate, vector.KindFloat64, vector.KindString, vector.KindBool, vector.KindString}
	full := [][]vector.Value{
		{vector.VIDValue(3), vector.Int64(-7), vector.Date(19000), vector.Float64(2.5), vector.String_("a"), vector.Bool(true), vector.String_("x")},
		{vector.VIDValue(vector.NilVID), vector.Int64(1 << 40), vector.Date(0), vector.Float64(-0.5), vector.String_(""), vector.Bool(false), vector.String_("y")},
		{vector.VIDValue(0), {}, vector.Date(-1), vector.Float64(0), vector.String_("Zürich"), vector.Bool(true), vector.String_("x")},
	}
	dict := vector.NewDict()
	pool := storage.NewPool()
	for _, arena := range []*storage.Arena{nil, pool.GetArena()} {
		for _, rows := range [][][]vector.Value{full, nil} {
			ctx := &Ctx{Arena: arena}
			ft := oneNodeTree(names, kinds, dict, rows)
			if got, err := defactor(ctx, ft, nil); err != nil || got != ft {
				t.Fatalf("%d rows: a one-node tree de-factors to %p, %v; want itself", len(rows), got, err)
			}
			narrow := slices.Clone(names)
			slices.Reverse(narrow)
			under := oneNodeTree(names, kinds, dict, rows)
			// One leaf row, under the first root row.
			leaf := vector.NewColumn("leaf", vector.KindInt64)
			index := make([]core.Range, len(rows))
			if len(rows) > 0 {
				leaf.AppendInt64(1)
				index[0] = core.Range{End: 1}
			}
			under.AddChild(under.Root, core.NewFBlock(leaf), index)
			for _, c := range []struct {
				ft    *core.FTree
				names []string
				rows  [][]vector.Value
			}{
				{oneNodeTree(names, kinds, dict, rows), narrow, reversed(rows)},
				{under, names, rows[:min(len(rows), 1)]},
			} {
				got, err := defactor(ctx, c.ft, c.names)
				if err != nil {
					t.Fatal(err)
				}
				if got.NumNodes() != 1 || !got.Root.Block.ColumnByName("c").DictEncoded() {
					t.Fatalf("%d rows: %d nodes; the dictionary column lost its codes", len(rows), got.NumNodes())
				}
				back, err := got.DefactorAll()
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(back.Names, c.names) {
					t.Fatalf("schema: got %v, want %v", back.Names, c.names)
				}
				if !slices.EqualFunc(back.Rows, c.rows, slices.Equal[[]vector.Value]) {
					t.Fatalf("rows: got %v, want %v", back.Rows, c.rows)
				}
			}
		}
		if arena != nil {
			pool.PutArena(arena)
		}
	}
}

// oneNodeTree returns a one-node tree over rows, one column per name, the
// column "c" dictionary-coded under d.
func oneNodeTree(names []string, kinds []vector.Kind, d *vector.Dict, rows [][]vector.Value) *core.FTree {
	b := core.NewFBlock()
	for j, name := range names {
		col := vector.NewColumn(name, kinds[j])
		if name == "c" {
			col = vector.NewDictColumn(name, d)
		}
		for _, row := range rows {
			col.Append(row[j])
		}
		b.AddColumn(col)
	}
	return core.NewFTree(b)
}

// reversed returns rows with each row's values in reverse order.
func reversed(rows [][]vector.Value) [][]vector.Value {
	out := make([][]vector.Value, len(rows))
	for i, row := range rows {
		out[i] = slices.Clone(row)
		slices.Reverse(out[i])
	}
	return out
}
