package core

import "fmt"

// Representation invariants of the factorized intermediate result. The
// operators in internal/op maintain these implicitly; geslint (cmd/geslint)
// enforces the coding discipline statically, and debug builds
// (-tags gesassert) verify the data structures themselves at operator block
// boundaries via CheckFTree.
//
// The invariants are exactly the properties §4.2 relies on:
//
//  I1 (cardinality)  — every column of an f-Block has the block cardinality.
//  I2 (sel bounds)   — each node's selection vector covers exactly its
//                      block's rows.
//  I3 (index shape)  — a non-root node's index vector has one entry per
//                      parent row; entries are well-formed (Start <= End),
//                      in child-row bounds, monotone, and contiguous:
//                      Index[0].Start == 0, Index[i].End == Index[i+1].Start,
//                      and the last End equals the child cardinality.
//                      Constant-delay enumeration (Lemma 4.4) depends on it.
//  I4 (partition)    — attribute names are owned by exactly one node
//                      (disjoint schema partition).
//  I5 (registry)     — the node registry is preorder-consistent: parents
//                      precede children and IDs match registry positions.

// Invariants checks I1–I5 on the tree and returns the first violation found,
// or nil. It is always compiled (the fuzzers and tests use it directly);
// CheckFTree is the build-tag-gated panicking wrapper operators call.
func (t *FTree) Invariants() error {
	if t.Root == nil || len(t.nodes) == 0 {
		return fmt.Errorf("f-tree has no root")
	}
	if t.nodes[0] != t.Root {
		return fmt.Errorf("registry[0] is not the root")
	}
	seen := make(map[string]int, 8)
	for pos, n := range t.nodes {
		// I5: registry consistency.
		if n.id != pos {
			return fmt.Errorf("node at registry position %d has id %d", pos, n.id)
		}
		if pos == 0 {
			if n.Parent != nil || n.Index != nil {
				return fmt.Errorf("root node has a parent or an index vector")
			}
		} else {
			if n.Parent == nil {
				return fmt.Errorf("non-root node %d has no parent", pos)
			}
			if n.Parent.id >= pos {
				return fmt.Errorf("node %d precedes its parent %d in the registry (preorder violated)", pos, n.Parent.id)
			}
		}
		// I1: one cardinality per block.
		rows := n.Block.NumRows()
		for _, c := range n.Block.Columns() {
			if c.Len() != rows {
				return fmt.Errorf("node %d: column %q has %d rows, block has %d", pos, c.Name, c.Len(), rows)
			}
		}
		// I2: selection-vector bounds.
		if n.Sel == nil {
			return fmt.Errorf("node %d has no selection vector", pos)
		}
		if n.Sel.Len() != rows {
			return fmt.Errorf("node %d: selection vector covers %d rows, block has %d", pos, n.Sel.Len(), rows)
		}
		// I3: index-vector shape.
		if pos > 0 {
			if err := checkIndexVector(n, rows); err != nil {
				return fmt.Errorf("node %d: %w", pos, err)
			}
		}
		// I4: disjoint schema partition. The names are read off the columns
		// rather than Schema, which allocates: debug builds run this at every
		// operator boundary, and the alloc-budget tests run in them too.
		for _, c := range n.Block.Columns() {
			if owner, dup := seen[c.Name]; dup {
				return fmt.Errorf("attribute %q owned by nodes %d and %d (schema partition not disjoint)", c.Name, owner, pos)
			}
			seen[c.Name] = pos
		}
	}
	return nil
}

// checkIndexVector verifies I3 for one non-root node whose block holds rows
// child rows.
func checkIndexVector(n *Node, rows int) error {
	if len(n.Index) != n.Parent.Block.NumRows() {
		return fmt.Errorf("index vector has %d entries, parent has %d rows", len(n.Index), n.Parent.Block.NumRows())
	}
	prevEnd := int32(0)
	for i, rg := range n.Index {
		if rg.Start > rg.End {
			return fmt.Errorf("index[%d] = [%d,%d) is inverted", i, rg.Start, rg.End)
		}
		if rg.Start != prevEnd {
			return fmt.Errorf("index[%d] starts at %d, want %d (index vector not contiguous)", i, rg.Start, prevEnd)
		}
		if int(rg.End) > rows {
			return fmt.Errorf("index[%d] = [%d,%d) exceeds child cardinality %d", i, rg.Start, rg.End, rows)
		}
		prevEnd = rg.End
	}
	if len(n.Index) > 0 && int(prevEnd) != rows {
		return fmt.Errorf("index vector covers %d child rows, block has %d", prevEnd, rows)
	}
	if len(n.Index) == 0 && rows != 0 {
		return fmt.Errorf("empty index vector over a %d-row block", rows)
	}
	return nil
}
