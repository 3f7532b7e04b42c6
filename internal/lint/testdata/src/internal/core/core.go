// Package core stubs the factorized representation: Node with a selection
// vector and FBlock with column accessors, under the real import path.
package core

import "ges/internal/vector"

// Node is one f-Tree node.
type Node struct {
	Block *FBlock
	Sel   *vector.Bitset
}

// FBlock is a factorized block of equal-cardinality columns.
type FBlock struct {
	cols []*vector.Column
}

// NewFBlock builds a block over the given columns.
func NewFBlock(cols ...*vector.Column) *FBlock { return &FBlock{cols: cols} }

// Column returns the i-th column.
func (b *FBlock) Column(i int) *vector.Column { return b.cols[i] }

// ColumnByName returns the named column or nil.
func (b *FBlock) ColumnByName(name string) *vector.Column {
	for _, c := range b.cols {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Columns returns the column slice.
func (b *FBlock) Columns() []*vector.Column { return b.cols }

// AddColumn appends a column; core is the sanctioned writer, so the appends
// inside this package must NOT be flagged by R3.
func (b *FBlock) AddColumn(c *vector.Column) {
	b.cols = append(b.cols, c)
}

// Renumber exercises core's own right to write selection vectors and grow
// block columns (R3 negative cases).
func (b *FBlock) Renumber(n *Node) {
	n.Sel.Set(0)
	b.Column(0).AppendInt64(0)
}
