// Package core implements the paper's primary contribution (§4): the
// factorized intermediate-result representation of the GES query executor.
//
// An f-Block is a cache-friendly column-oriented block storing the Union of
// tuples over its schema. An f-Tree arranges f-Blocks into a rooted tree
// whose edges encode Cartesian-product relationships via index vectors, with
// a selection vector per node marking valid rows. Together they factorize a
// relation: the relation's schema is partitioned disjointly across the tree
// nodes (disjoint schema partition property), redundancy is eliminated, and
// the encoded tuples can be enumerated with constant delay (Lemma 4.4). A
// blocking operator de-factors by that enumeration into a one-node f-Tree,
// the columnar form of the paper's flat-block.
package core

import (
	"fmt"
	"strings"

	"ges/internal/vector"
)

// FBlock is a set of equal-cardinality typed columns — the Union of tuples
// over its schema (§4.2, "f-Block").
type FBlock struct {
	cols []*vector.Column
}

// NewFBlock returns an f-Block over the given columns; all columns must
// share one cardinality.
func NewFBlock(cols ...*vector.Column) *FBlock {
	b := &FBlock{cols: cols}
	b.mustAligned()
	return b
}

func (b *FBlock) mustAligned() {
	if len(b.cols) == 0 {
		return
	}
	n := b.cols[0].Len()
	for _, c := range b.cols[1:] {
		if c.Len() != n {
			panic(fmt.Sprintf("core: f-Block cardinality mismatch: %q has %d rows, %q has %d",
				b.cols[0].Name, n, c.Name, c.Len()))
		}
	}
}

// NumRows returns the block cardinality N.
func (b *FBlock) NumRows() int {
	if len(b.cols) == 0 {
		return 0
	}
	return b.cols[0].Len()
}

// NumCols returns the number of columns.
func (b *FBlock) NumCols() int { return len(b.cols) }

// Columns returns the backing column slice (shared; do not mutate length).
func (b *FBlock) Columns() []*vector.Column { return b.cols }

// Column returns the i-th column.
func (b *FBlock) Column(i int) *vector.Column { return b.cols[i] }

// ColumnByName returns the column with the given name, or nil.
func (b *FBlock) ColumnByName(name string) *vector.Column {
	for _, c := range b.cols {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// AddColumn appends a column to the block; Projection uses this to attach
// fetched property columns (§4.3). The column must match the cardinality of
// the block unless the block is empty.
func (b *FBlock) AddColumn(c *vector.Column) {
	if len(b.cols) > 0 && c.Len() != b.NumRows() {
		panic(fmt.Sprintf("core: AddColumn %q with %d rows onto block of %d", c.Name, c.Len(), b.NumRows()))
	}
	b.cols = append(b.cols, c)
}

// Schema returns the attribute names covered by this block.
func (b *FBlock) Schema() []string {
	out := make([]string, len(b.cols))
	for i, c := range b.cols {
		out[i] = c.Name
	}
	return out
}

// Tuple materializes the i-th tuple of the block (F_B^[i] in the paper).
func (b *FBlock) Tuple(i int) []vector.Value {
	t := make([]vector.Value, len(b.cols))
	for j, c := range b.cols {
		t[j] = c.Get(i)
	}
	return t
}

// Reset truncates all columns to zero rows, retaining capacity, so a
// pre-allocated block can be reused across batches (§5, Vectorization).
func (b *FBlock) Reset() {
	for _, c := range b.cols {
		c.Reset()
	}
}

// Reinit re-points a recycled block at a new column set, retaining the
// column-pointer slice's capacity (§5, memory pool). The cols argument is
// copied, not retained, so variadic callers keep their argument on the stack.
func (b *FBlock) Reinit(cols []*vector.Column) {
	b.cols = append(b.cols[:0], cols...)
	b.mustAligned()
}

// Drop clears the block's column references (releasing them for collection or
// reuse) and truncates it, readying the block for pooling.
func (b *FBlock) Drop() {
	clear(b.cols)
	b.cols = b.cols[:0]
}

// MemBytes returns the accounted intermediate-result memory of the block.
func (b *FBlock) MemBytes() int {
	n := 48
	for _, c := range b.cols {
		n += c.MemBytes()
	}
	return n
}

// String renders the schema and cardinality for debugging.
func (b *FBlock) String() string {
	return fmt.Sprintf("FBlock{%s}x%d", strings.Join(b.Schema(), ","), b.NumRows())
}
