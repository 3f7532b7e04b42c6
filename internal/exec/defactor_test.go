package exec_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ges/internal/core"
	"ges/internal/exec"
	"ges/internal/op"
	"ges/internal/plan"
	"ges/internal/vector"
)

// treeSource is a source operator that hands the engine a prepared f-Tree.
type treeSource struct{ ft *core.FTree }

func (s treeSource) Name() string { return "TreeSource" }

func (s treeSource) Execute(*op.Ctx, *core.FTree) (*core.FTree, error) { return s.ft, nil }

// TestColumnarDefactorMatchesReference holds the one de-factor and the one
// boxing of a result to the reference, core.FTree.DefactorAll: on random
// trees — selection holes, dictionary-coded and plain strings, a NilVID row,
// null rows, empty trees and one-node trees — the engine's exit (the
// columnar de-factor, then the boxing of its one node) and an explicit
// narrowing Defactor return the reference's names, kinds and rows, in its
// order.
func TestColumnarDefactorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	dict := vector.NewDict()
	for trial := range 60 {
		ft := randomTree(rng, dict)
		names := ft.Schema()
		narrow := []string{names[len(names)-1], names[0]}
		for _, c := range []struct {
			p     plan.Plan
			names []string
		}{
			{plan.Plan{treeSource{ft}}, names},
			{plan.Plan{treeSource{ft}, &op.Defactor{Cols: narrow}}, narrow},
		} {
			want, err := ft.Defactor(c.names)
			if err != nil {
				t.Fatal(err)
			}
			res, err := exec.New(exec.ModeFactorized).Run(nil, c.p)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			got := res.Block
			if !slices.Equal(got.Names, want.Names) || !slices.Equal(got.Kinds, want.Kinds) {
				t.Fatalf("trial %d: schema %v %v, want %v %v", trial, got.Names, got.Kinds, want.Names, want.Kinds)
			}
			if !slices.EqualFunc(got.Rows, want.Rows, slices.Equal[[]vector.Value]) {
				t.Fatalf("trial %d: %d rows differ from the reference's %d\n%s", trial, got.NumRows(), want.NumRows(), ft)
			}
		}
	}
}

// randomTree returns a tree of one to four nodes, a root of 0 to 1300 rows
// and up to two children per parent row, every node holding a VID column
// (with a NilVID row), an int column (with null rows), a dictionary-coded
// and a plain string column, and about a fifth of each node's rows invalid.
func randomTree(rng *rand.Rand, dict *vector.Dict) *core.FTree {
	ft := core.NewFTree(randomBlock(rng, "n0", []int{0, 1, 7, 300, 1300}[rng.Intn(5)], dict))
	for k := 1; k < 1+rng.Intn(4); k++ {
		parent := ft.Nodes()[rng.Intn(ft.NumNodes())]
		index := make([]core.Range, parent.Block.NumRows())
		rows := 0
		for i := range index {
			n := rng.Intn(3)
			index[i] = core.Range{Start: int32(rows), End: int32(rows + n)}
			rows += n
		}
		ft.AddChild(parent, randomBlock(rng, fmt.Sprintf("n%d", k), rows, dict), index)
	}
	for _, n := range ft.Nodes() {
		for i := range n.Block.NumRows() {
			if rng.Intn(5) == 0 {
				n.Sel.Clear(i)
			}
		}
	}
	return ft
}

func randomBlock(rng *rand.Rand, prefix string, rows int, dict *vector.Dict) *core.FBlock {
	v := vector.NewColumn(prefix+".v", vector.KindVID)
	i := vector.NewColumn(prefix+".i", vector.KindInt64)
	s := vector.NewDictColumn(prefix+".s", dict)
	p := vector.NewColumn(prefix+".p", vector.KindString)
	for r := range rows {
		vid := vector.VID(rng.Intn(1000))
		if r == rows/2 {
			vid = vector.NilVID
		}
		v.AppendVID(vid)
		if rng.Intn(10) == 0 {
			i.Append(vector.Value{})
		} else {
			i.AppendInt64(rng.Int63n(1000) - 500)
		}
		s.AppendString(fmt.Sprintf("s%d", rng.Intn(20)))
		p.AppendString(fmt.Sprintf("p%d", rng.Intn(20)))
	}
	return core.NewFBlock(v, i, s, p)
}
