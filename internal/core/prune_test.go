package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestPruneUpPreservesRelation: pruning only clears parent rows whose every
// child extension is invalid, so the encoded relation must be unchanged —
// for random trees, random selection patterns, and pruning from every node.
func TestPruneUpPreservesRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(1717))
	for trial := 0; trial < 200; trial++ {
		ft := randomTree(rng)
		before, err := ft.DefactorAll()
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range ft.Nodes() {
			ft.PruneUp(n)
		}
		after, err := ft.DefactorAll()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sortedKeys(before.Rows), sortedKeys(after.Rows)) {
			t.Fatalf("trial %d: PruneUp changed the relation\nbefore %v\nafter %v",
				trial, sortedKeys(before.Rows), sortedKeys(after.Rows))
		}
		if got := ft.CountTuples(); got != int64(after.NumRows()) {
			t.Fatalf("trial %d: CountTuples %d != rows %d after prune", trial, got, after.NumRows())
		}
	}
}

// TestPruneUpActuallyPrunes: on a chain where all leaves die, every ancestor
// row must be invalidated.
func TestPruneUpActuallyPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		ft := randomTree(rng)
		nodes := ft.Nodes()
		leaf := nodes[len(nodes)-1]
		if len(leaf.Children) > 0 {
			continue
		}
		leaf.Sel.ClearAll()
		ft.PruneUp(leaf)
		// Any parent row whose entire range pointed into the dead leaf must
		// now be invalid.
		if p := leaf.Parent; p != nil {
			for i := 0; i < p.Block.NumRows(); i++ {
				if p.Sel.Get(i) && !(leaf.Index[i].Len() <= 0) {
					t.Fatalf("trial %d: parent row %d survived with only dead children", trial, i)
				}
			}
		}
	}
}
