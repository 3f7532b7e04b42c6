package core

import (
	"math/rand"
	"testing"

	"ges/internal/vector"
)

// randomTreeSeeded builds one random (contiguous, in-bounds) tree from a
// fixed seed — shared by the invariant tests.
func randomTreeSeeded(seed int64) *FTree {
	return randomTree(rand.New(rand.NewSource(seed)))
}

// fuzzTree decodes an arbitrary byte string into a small, well-formed f-Tree:
// node count, per-parent extension widths, and selection bits are all drawn
// from the input, while contiguity and bounds hold by construction (the same
// guarantees Expand provides; Invariants re-checks them below). Returns nil
// when the input is too short to drive the decoder.
func fuzzTree(data []byte) *FTree {
	if len(data) < 4 {
		return nil
	}
	pos := 0
	next := func() int {
		b := data[pos%len(data)]
		pos++
		return int(b)
	}

	colID := 0
	val := int64(0)
	makeBlock := func(rows int) *FBlock {
		col := vector.NewColumn(string(rune('a'+colID%26))+string(rune('0'+colID/26)), vector.KindInt64)
		colID++
		for r := 0; r < rows; r++ {
			col.AppendInt64(val)
			val++
		}
		return NewFBlock(col)
	}

	nNodes := 1 + next()%4
	rootRows := 1 + next()%6
	ft := NewFTree(makeBlock(rootRows))
	for len(ft.Nodes()) < nNodes {
		parent := ft.Nodes()[next()%len(ft.Nodes())]
		pRows := parent.Block.NumRows()
		index := make([]Range, pRows)
		total := int32(0)
		for i := 0; i < pRows; i++ {
			span := int32(next() % 4) // 0 = no extension for this parent row
			index[i] = Range{Start: total, End: total + span}
			total += span
		}
		ft.AddChild(parent, makeBlock(int(total)), index)
	}
	for _, n := range ft.Nodes() {
		for r := 0; r < n.Block.NumRows(); r++ {
			if next()%4 == 0 {
				n.Sel.Clear(r)
			}
		}
	}
	return ft
}

// FuzzEnumerate drives random f-Tree shapes — index vectors and selection
// patterns decoded from fuzz input — through the constant-delay enumerator
// and cross-checks DefactorAll against the naive recursive expansion
// (bruteForce), CountTuples and the structural invariants.
//
// Run `go test -fuzz=FuzzEnumerate ./internal/core` to explore beyond the
// seed corpus.
func FuzzEnumerate(f *testing.F) {
	// Seeds mirroring the shapes of the existing ftree tests: the figure-7
	// two-child tree, a chain, a zero-extension tree, wide fan-out, and a
	// few byte strings exercising selection-clearing paths.
	f.Add([]byte{2, 1, 0, 2, 2, 3, 1, 0, 0, 0})                               // root + two children (figure-7 shape)
	f.Add([]byte{3, 1, 0, 1, 1, 1, 2, 1, 1, 1, 1, 0})                         // three-node chain
	f.Add([]byte{1, 5, 9, 9})                                                 // root only
	f.Add([]byte{2, 3, 0, 0, 0, 0})                                           // child with all-empty ranges
	f.Add([]byte{3, 5, 0, 3, 3, 3, 3, 3, 0, 1, 1, 1, 1})                      // wide fan-out
	f.Add([]byte{2, 4, 0, 2, 0, 2, 0, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 0, 0, 4}) // heavy selection clearing
	f.Fuzz(func(t *testing.T, data []byte) {
		ft := fuzzTree(data)
		if ft == nil {
			return
		}
		// The decoder must only build trees satisfying the representation
		// invariants (same contract as the operators).
		if err := ft.Invariants(); err != nil {
			t.Fatalf("decoder built an invalid tree: %v\n%s", err, ft)
		}
		want := bruteForce(ft)
		fb, err := ft.DefactorAll()
		if err != nil {
			t.Fatal(err)
		}
		if fb.NumRows() != len(want) {
			t.Fatalf("DefactorAll produced %d tuples, naive enumeration %d\n%s", fb.NumRows(), len(want), ft)
		}
		if got := ft.CountTuples(); got != int64(len(want)) {
			t.Fatalf("CountTuples = %d, naive enumeration %d", got, len(want))
		}
		gotKeys, wantKeys := sortedKeys(fb.Rows), sortedKeys(want)
		for i := range wantKeys {
			if gotKeys[i] != wantKeys[i] {
				t.Fatalf("tuple multiset mismatch at %d:\n got %q\nwant %q", i, gotKeys[i], wantKeys[i])
			}
		}
	})
}
