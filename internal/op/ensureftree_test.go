package op

import (
	"slices"
	"testing"

	"ges/internal/core"
	"ges/internal/storage"
	"ges/internal/vector"
)

// TestFlatChunkIsOneNodeTree holds the one entry of the operators that grow
// or annotate the f-Tree: a flat block with a column of every kind, a NilVID
// row included, becomes a one-node tree over its rows, and DefactorAll turns
// that tree back into the same names, kinds and rows in the same order. So
// does an empty block. Both run without an arena and on a recycling one.
func TestFlatChunkIsOneNodeTree(t *testing.T) {
	names := []string{"v", "i", "d", "f", "s", "b"}
	kinds := []vector.Kind{vector.KindVID, vector.KindInt64, vector.KindDate, vector.KindFloat64, vector.KindString, vector.KindBool}
	full := core.NewFlatBlock(names, kinds)
	for _, row := range [][]vector.Value{
		{vector.VIDValue(3), vector.Int64(-7), vector.Date(19000), vector.Float64(2.5), vector.String_("a"), vector.Bool(true)},
		{vector.VIDValue(vector.NilVID), vector.Int64(1 << 40), vector.Date(0), vector.Float64(-0.5), vector.String_(""), vector.Bool(false)},
		{vector.VIDValue(0), vector.Int64(0), vector.Date(-1), vector.Float64(0), vector.String_("Zürich"), vector.Bool(true)},
	} {
		full.Append(row)
	}
	pool := storage.NewPool()
	for _, arena := range []*storage.Arena{nil, pool.GetArena()} {
		for _, fb := range []*core.FlatBlock{full, core.NewFlatBlock(names, kinds)} {
			ctx := &Ctx{Arena: arena}
			ft := ensureFTree(ctx, ctx.FlatChunk(fb)).FT
			if ft.NumNodes() != 1 || ft.Root.Block.NumRows() != fb.NumRows() {
				t.Fatalf("%d rows: got %d nodes, %d root rows", fb.NumRows(), ft.NumNodes(), ft.Root.Block.NumRows())
			}
			back, err := DefactorAll(ctx, ft)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(back.Names, fb.Names) || !slices.Equal(back.Kinds, fb.Kinds) {
				t.Fatalf("schema: got %v %v, want %v %v", back.Names, back.Kinds, fb.Names, fb.Kinds)
			}
			if !slices.EqualFunc(back.Rows, fb.Rows, slices.Equal[[]vector.Value]) {
				t.Fatalf("rows: got %v, want %v", back.Rows, fb.Rows)
			}
		}
		if arena != nil {
			pool.PutArena(arena)
		}
	}
}
