package core

import (
	"strings"
	"testing"

	"ges/internal/vector"
)

func TestInvariantsAcceptsWellFormedTrees(t *testing.T) {
	if err := figure7Tree().Invariants(); err != nil {
		t.Fatalf("figure-7 tree should satisfy all invariants: %v", err)
	}
	// Zero-row root.
	empty := NewFTree(NewFBlock(vector.NewColumn("x", vector.KindInt64)))
	if err := empty.Invariants(); err != nil {
		t.Fatalf("empty tree should satisfy all invariants: %v", err)
	}
	// Zero-row child under a populated root (every range empty).
	ft := NewFTree(NewFBlock(intCol("a", 1, 2)))
	ft.AddChild(ft.Root, NewFBlock(vector.NewColumn("b", vector.KindInt64)),
		[]Range{{0, 0}, {0, 0}})
	if err := ft.Invariants(); err != nil {
		t.Fatalf("zero-row child should satisfy all invariants: %v", err)
	}
}

func TestInvariantsCatchesViolations(t *testing.T) {
	cases := []struct {
		name string
		mut  func() *FTree
		want string
	}{
		{
			name: "cardinality mismatch (I1)",
			mut: func() *FTree {
				ft := NewFTree(NewFBlock(intCol("a", 1, 2)))
				// Append behind the block's back, bypassing AddColumn's check —
				// exactly the mutation rule R3 forbids statically.
				ft.Root.Block.Column(0).AppendInt64(3)
				return ft
			},
			want: "rows, block has",
		},
		{
			name: "selection bounds (I2)",
			mut: func() *FTree {
				ft := NewFTree(NewFBlock(intCol("a", 1, 2)))
				ft.Root.Sel = vector.NewBitset(5)
				return ft
			},
			want: "selection vector covers",
		},
		{
			name: "non-contiguous index (I3)",
			mut: func() *FTree {
				ft := NewFTree(NewFBlock(intCol("a", 1, 2)))
				ft.AddChild(ft.Root, NewFBlock(intCol("b", 10, 20, 30)),
					[]Range{{0, 1}, {2, 3}}) // gap: row 1 unowned
				return ft
			},
			want: "not contiguous",
		},
		{
			name: "inverted range (I3)",
			mut: func() *FTree {
				ft := NewFTree(NewFBlock(intCol("a", 1)))
				ft.AddChild(ft.Root, NewFBlock(intCol("b", 10)), []Range{{1, 0}})
				return ft
			},
			want: "inverted",
		},
		{
			name: "index out of child bounds (I3)",
			mut: func() *FTree {
				ft := NewFTree(NewFBlock(intCol("a", 1)))
				ft.AddChild(ft.Root, NewFBlock(intCol("b", 10)), []Range{{0, 4}})
				return ft
			},
			want: "exceeds child cardinality",
		},
		{
			name: "index undercovers child (I3)",
			mut: func() *FTree {
				ft := NewFTree(NewFBlock(intCol("a", 1)))
				ft.AddChild(ft.Root, NewFBlock(intCol("b", 10, 20)), []Range{{0, 1}})
				return ft
			},
			want: "covers 1 child rows",
		},
		{
			name: "duplicate attribute (I4)",
			mut: func() *FTree {
				ft := NewFTree(NewFBlock(intCol("a", 1)))
				ft.AddChild(ft.Root, NewFBlock(intCol("a", 10)), []Range{{0, 1}})
				return ft
			},
			want: "partition not disjoint",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.mut().Invariants()
			if err == nil {
				t.Fatalf("Invariants accepted a tree violating %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Invariants error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestInvariantsAcceptRandomTrees(t *testing.T) {
	// The shared random-tree generator builds contiguous index vectors by
	// construction; all of them must pass the checker.
	for trial := 0; trial < 100; trial++ {
		ft := randomTreeSeeded(int64(trial))
		if err := ft.Invariants(); err != nil {
			t.Fatalf("trial %d: random tree rejected: %v", trial, err)
		}
	}
}
