package core

import (
	"fmt"
	"strings"

	"ges/internal/vector"
)

// FlatBlock is the result form: each row is one fully materialized tuple of
// boxed values. Operators never pass one; the executor boxes a query's final
// f-Tree into it once, for the readers of results (the service encoder, the
// library, the oracles). The de-factored form operators continue on — the
// paper's Flat-Block (§4.2) — is a one-node f-Tree of typed columns.
type FlatBlock struct {
	Names []string
	Kinds []vector.Kind
	Rows  [][]vector.Value

	// slab is the unused tail of the value array Append carves rows from.
	slab []vector.Value
}

// slabRows bounds the rows one slab holds. A new slab holds half as many rows
// as the block already has (at least 8), so an n-row block costs O(log n)
// allocations and leaves at most a third of its slab values unused.
const slabRows = 1024

// NewFlatBlock returns an empty flat block with the given schema.
func NewFlatBlock(names []string, kinds []vector.Kind) *FlatBlock {
	if len(names) != len(kinds) {
		panic("core: FlatBlock schema name/kind length mismatch")
	}
	return &FlatBlock{Names: names, Kinds: kinds}
}

// NumRows returns the number of tuples.
func (f *FlatBlock) NumRows() int { return len(f.Rows) }

// NumCols returns the arity.
func (f *FlatBlock) NumCols() int { return len(f.Names) }

// ColIndex resolves an attribute name to its column position, or -1.
func (f *FlatBlock) ColIndex(name string) int {
	for i, n := range f.Names {
		if n == name {
			return i
		}
	}
	return -1
}

// Append adds one tuple. The row is copied so callers may reuse their
// buffer; the copy is carved from a shared slab rather than allocated on its
// own. Each carved row is capped at its length, so appending to it
// reallocates instead of overwriting the next row.
func (f *FlatBlock) Append(row []vector.Value) {
	n := len(row)
	if len(f.slab) < n {
		f.slab = make([]vector.Value, n*min(max(len(f.Rows)/2, 8), slabRows))
	}
	r := f.slab[:n:n]
	f.slab = f.slab[n:]
	copy(r, row)
	f.Rows = append(f.Rows, r)
}

// AppendOwned adds one tuple without copying; the caller yields ownership.
func (f *FlatBlock) AppendOwned(row []vector.Value) {
	f.Rows = append(f.Rows, row)
}

// MemBytes returns the accounted memory of the flat representation. Each
// value is charged its kind's fixed width plus string payload, plus the
// per-row slice overhead — the honest cost of a materialized tuple table,
// comparable with FTree.MemBytes.
func (f *FlatBlock) MemBytes() int {
	n := 48 + len(f.Rows)*24
	for _, row := range f.Rows {
		for _, v := range row {
			n += v.Kind.Width() + len(v.S)
		}
	}
	return n
}

// String renders schema and a few rows for debugging.
func (f *FlatBlock) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "FlatBlock{%s}x%d", strings.Join(f.Names, ","), f.NumRows())
	limit := f.NumRows()
	if limit > 5 {
		limit = 5
	}
	for i := 0; i < limit; i++ {
		sb.WriteString("\n  ")
		for j, v := range f.Rows[i] {
			if j > 0 {
				sb.WriteString(" | ")
			}
			sb.WriteString(v.String())
		}
	}
	return sb.String()
}
