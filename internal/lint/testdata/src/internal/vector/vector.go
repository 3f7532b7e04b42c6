// Package vector stubs the real module's vector types: just enough surface
// for the rule fixtures to type-check under the same import paths.
package vector

// VID is a vertex identifier.
type VID uint32

// Kind tags a Value.
type Kind uint8

// Value is one scalar cell.
type Value struct {
	Kind Kind
	I    int64
}

// Bitset is a packed bit vector (the selection-vector representation).
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns an all-set bitset of n bits.
func NewBitset(n int) *Bitset { return &Bitset{words: make([]uint64, (n+63)/64), n: n} }

// Set sets bit i.
func (b *Bitset) Set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (b *Bitset) Clear(i int) { b.words[i>>6] &^= 1 << (uint(i) & 63) }

// Column is one attribute vector.
type Column struct {
	Name string
	i64  []int64
}

// NewColumn returns an empty column.
func NewColumn(name string, k Kind) *Column { return &Column{Name: name} }

// Len returns the row count.
func (c *Column) Len() int { return len(c.i64) }

// Append appends one value.
func (c *Column) Append(v Value) { c.i64 = append(c.i64, v.I) }

// AppendInt64 appends one int64.
func (c *Column) AppendInt64(v int64) { c.i64 = append(c.i64, v) }

// AppendVIDs appends a run of VIDs in one copy.
func (c *Column) AppendVIDs(vs []VID) {
	for _, v := range vs {
		c.i64 = append(c.i64, int64(v))
	}
}

// Gather appends rows of src.
func (c *Column) Gather(src *Column, rows []int32) {
	for _, r := range rows {
		c.i64 = append(c.i64, src.i64[r])
	}
}

// ShareScanColumn returns a zero-copy scan view of the column — an R8
// snapshot source in the fixture, matching the real module's shared-column
// hand-off.
func (c *Column) ShareScanColumn() *Column { return c }
