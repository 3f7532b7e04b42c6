package vector

import (
	"fmt"
	"slices"
)

// Column is a typed, contiguous column of singletons — one column of an
// f-Block (§4.2). Exactly one backing slice is in use, selected by Kind.
//
// A string column may be *dictionary-encoded*: rows are uint32 codes into a
// Dict and the str slice is unused. Storage property columns are always
// dict-encoded; gathered intermediate columns share the storage dict so a
// gather moves 4-byte codes and code→string resolution is deferred to output
// serialization or order-sensitive comparisons.
//
// A column may be *shared*: a zero-copy view of a storage-owned column
// produced by an aligned gather. Shared columns are read-only — mutating
// entry points panic — and account no payload memory.
//
// A typed column carries nulls in a validity bitmap that stays empty until
// Append or Set writes the null Value{} (a global MIN or MAX over no rows):
// a null row holds its kind's zero and Get returns Value{}. Typed kernels
// read the raw slices, so they take a column with nulls (HasNulls) by Get.
//
//geslint:snapshot-owner shared columns are zero-copy scan views by design; they hand off to the consuming f-Block within the same query
type Column struct {
	Name string
	Kind Kind

	i64 []int64
	f64 []float64
	str []string
	bl  []bool
	vid []VID

	// Dictionary encoding (KindString only).
	codes []uint32
	dict  *Dict

	// Read-only view of storage-owned memory (aligned gather fast path).
	shared bool

	// nulls has bit i set when row i is null; empty while no row is.
	nulls []uint64
}

// NewColumn returns an empty column of the given kind.
func NewColumn(name string, kind Kind) *Column {
	return &Column{Name: name, Kind: kind}
}

// NewDictColumn returns an empty dictionary-encoded string column whose codes
// reference d. Gathered string columns use the dict of the storage column
// they gather from, so codes can be bulk-copied without resolution.
func NewDictColumn(name string, d *Dict) *Column {
	return &Column{Name: name, Kind: KindString, dict: d}
}

// ShareVIDs wraps an existing VID slice as a read-only column without
// copying. Scans use it to expose the storage vid order zero-copy;
// downstream operators narrow via selection vectors, never by mutating the
// scan column, so the share is safe.
func ShareVIDs(name string, vids []VID) *Column {
	return &Column{Name: name, Kind: KindVID, vid: vids, shared: true}
}

// DictEncoded reports whether the column stores uint32 dictionary codes.
func (c *Column) DictEncoded() bool { return c.dict != nil }

// Dict returns the dictionary of a dict-encoded column (nil otherwise).
func (c *Column) Dict() *Dict { return c.dict }

// Codes exposes the raw code slice of a dict-encoded column.
func (c *Column) Codes() []uint32 { return c.codes }

// EnableDict switches an empty string column to dictionary encoding with a
// fresh dictionary.
func (c *Column) EnableDict() {
	if c.Kind != KindString || c.Len() != 0 {
		panic(fmt.Sprintf("vector: EnableDict on non-empty or non-string column %q", c.Name))
	}
	c.dict = NewDict()
}

// ShareAs returns a read-only zero-copy view of the column under a new name
// — the aligned-gather fast path, where a NodeScan-ordered block can adopt
// the storage column (codes and dict included) outright.
func (c *Column) ShareAs(name string) *Column {
	return &Column{
		Name: name, Kind: c.Kind,
		i64: c.i64, f64: c.f64, str: c.str, bl: c.bl, vid: c.vid,
		codes: c.codes, dict: c.dict, nulls: c.nulls,
		shared: true,
	}
}

// Len returns the logical number of rows.
func (c *Column) Len() int {
	switch c.Kind {
	case KindInt64, KindDate:
		return len(c.i64)
	case KindVID:
		return len(c.vid)
	case KindFloat64:
		return len(c.f64)
	case KindString:
		if c.dict != nil {
			return len(c.codes)
		}
		return len(c.str)
	case KindBool:
		return len(c.bl)
	default:
		return 0
	}
}

// VIDAt returns the VID at row i; the column must be of KindVID.
func (c *Column) VIDAt(i int) VID { return c.vid[i] }

// AppendVIDRange appends rows [lo,hi) of a VID column to dst.
func (c *Column) AppendVIDRange(dst []VID, lo, hi int) []VID {
	return append(dst, c.vid[lo:hi]...)
}

// StringAt returns the string at row i, resolving dictionary codes.
func (c *Column) StringAt(i int) string {
	if c.dict != nil {
		return c.dict.Str(c.codes[i])
	}
	return c.str[i]
}

// HasNulls reports whether some row may be null.
func (c *Column) HasNulls() bool { return len(c.nulls) > 0 }

// IsNull reports whether row i is null.
func (c *Column) IsNull(i int) bool {
	return i>>6 < len(c.nulls) && c.nulls[i>>6]&(1<<(uint(i)&63)) != 0
}

// setNull marks row i null, or clears its mark, growing the bitmap to the
// column's length on the first null.
func (c *Column) setNull(i int, null bool) {
	if w := i >> 6; w >= len(c.nulls) {
		if !null {
			return
		}
		c.nulls = append(c.nulls, make([]uint64, (c.Len()+63)/64-len(c.nulls))...)
	}
	if null {
		c.nulls[i>>6] |= 1 << (uint(i) & 63)
	} else {
		c.nulls[i>>6] &^= 1 << (uint(i) & 63)
	}
}

// Get returns the boxed value at row i: Value{} when the row is null.
func (c *Column) Get(i int) Value {
	if c.IsNull(i) {
		return Value{}
	}
	switch c.Kind {
	case KindInt64:
		return Int64(c.i64[i])
	case KindDate:
		return Date(c.i64[i])
	case KindVID:
		return VIDValue(c.VIDAt(i))
	case KindFloat64:
		return Float64(c.f64[i])
	case KindString:
		return String_(c.StringAt(i))
	case KindBool:
		return Bool(c.bl[i])
	default:
		return Value{}
	}
}

// mutCheck panics when the column is a read-only shared view.
func (c *Column) mutCheck() {
	if c.shared {
		//geslint:alloc-ok message formatting on the panic path only; the hot path is one branch
		panic(fmt.Sprintf("vector: mutation of shared column %q", c.Name))
	}
}

// Append appends a boxed value; its kind must match the column kind (date
// and int64 interconvert). The null Value{} appends a null row holding the
// kind's zero (code 0, the pre-interned "", in a dictionary column).
func (c *Column) Append(v Value) {
	c.mutCheck()
	null := v.Kind == KindInvalid
	switch c.Kind {
	case KindInt64, KindDate:
		c.i64 = append(c.i64, v.I)
	case KindVID:
		c.vid = append(c.vid, VID(v.I))
	case KindFloat64:
		c.f64 = append(c.f64, v.F)
	case KindString:
		if c.dict != nil {
			c.codes = append(c.codes, c.dict.Intern(v.S))
		} else {
			c.str = append(c.str, v.S)
		}
	case KindBool:
		c.bl = append(c.bl, v.I != 0)
	default:
		panic(fmt.Sprintf("vector: Append on invalid column %q", c.Name))
	}
	if null {
		c.setNull(c.Len()-1, true)
	}
}

// Set overwrites row i in place; the kind contract matches Append.
func (c *Column) Set(i int, v Value) {
	c.mutCheck()
	null := v.Kind == KindInvalid
	if null || len(c.nulls) > 0 {
		c.setNull(i, null)
	}
	switch c.Kind {
	case KindInt64, KindDate:
		c.i64[i] = v.I
	case KindVID:
		c.vid[i] = VID(v.I)
	case KindFloat64:
		c.f64[i] = v.F
	case KindString:
		if c.dict != nil {
			c.codes[i] = c.dict.Intern(v.S)
		} else {
			c.str[i] = v.S
		}
	case KindBool:
		c.bl[i] = v.I != 0
	default:
		panic(fmt.Sprintf("vector: Set on invalid column %q", c.Name))
	}
}

// AppendInt64 appends a raw int64 (KindInt64/KindDate).
func (c *Column) AppendInt64(v int64) {
	c.mutCheck()
	c.i64 = append(c.i64, v)
}

// AppendVID appends a materialized VID.
func (c *Column) AppendVID(v VID) {
	c.mutCheck()
	//geslint:alloc-ok column storage doubles amortized; O(1) per appended row across the batch
	c.vid = append(c.vid, v)
}

// AppendVIDs appends a run of VIDs in one copy — an expand's neighbour
// piece. The column owns the copy; vs may be storage memory.
func (c *Column) AppendVIDs(vs []VID) {
	c.mutCheck()
	c.vid = append(c.vid, vs...)
}

// AppendFloat64 appends a raw float64.
func (c *Column) AppendFloat64(v float64) {
	c.mutCheck()
	c.f64 = append(c.f64, v)
}

// AppendString appends a raw string, interning dict codes.
func (c *Column) AppendString(v string) {
	c.mutCheck()
	if c.dict != nil {
		c.codes = append(c.codes, c.dict.Intern(v))
		return
	}
	c.str = append(c.str, v)
}

// AppendBool appends a raw bool.
func (c *Column) AppendBool(v bool) {
	c.mutCheck()
	c.bl = append(c.bl, v)
}

// growZeroed resizes s to n elements, zeroing every slot (stale rows from a
// recycled scratch column must not leak into unselected gather rows). Rows
// the resize cuts off are zeroed too, which keeps the tail invariant of
// Reinit for the pointer-bearing slices.
func growZeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:max(n, len(s))]
	clear(s)
	return s[:n]
}

// Grow resizes the column to n zero-valued rows, reusing capacity — the
// output shape of a batch gather, which then writes selected rows in place.
func (c *Column) Grow(n int) {
	c.mutCheck()
	c.nulls = c.nulls[:0]
	switch c.Kind {
	case KindInt64, KindDate:
		c.i64 = growZeroed(c.i64, n)
	case KindVID:
		c.vid = growZeroed(c.vid, n)
	case KindFloat64:
		c.f64 = growZeroed(c.f64, n)
	case KindString:
		if c.dict != nil {
			c.codes = growZeroed(c.codes, n)
		} else {
			c.str = growZeroed(c.str, n)
		}
	case KindBool:
		c.bl = growZeroed(c.bl, n)
	default:
		panic(fmt.Sprintf("vector: Grow on invalid column %q", c.Name))
	}
}

// Int64s exposes the raw backing slice of an int64/date column for
// vectorized loops.
func (c *Column) Int64s() []int64 { return c.i64 }

// Float64s exposes the raw float64 backing slice.
func (c *Column) Float64s() []float64 { return c.f64 }

// Bools exposes the raw bool backing slice.
func (c *Column) Bools() []bool { return c.bl }

// VIDs exposes the raw VID backing slice.
func (c *Column) VIDs() []VID { return c.vid }

// Gather appends rows[0], rows[1], … of src, a column of c's kind, to c —
// the row gather of a de-factor. An empty string column adopts src's
// dictionary, so codes copy as codes. A column with nulls goes row by row
// through Get, which carries its nulls over.
func (c *Column) Gather(src *Column, rows []int32) {
	c.mutCheck()
	if c.Kind == KindString && c.Len() == 0 && c.dict == nil && src.dict != nil {
		c.dict = src.dict
	}
	if src.HasNulls() || c.dict != src.dict {
		for _, r := range rows {
			c.Append(src.Get(int(r)))
		}
		return
	}
	switch c.Kind {
	case KindInt64, KindDate:
		c.i64 = gathered(c.i64, src.i64, rows)
	case KindVID:
		c.vid = gathered(c.vid, src.vid, rows)
	case KindFloat64:
		c.f64 = gathered(c.f64, src.f64, rows)
	case KindString:
		if c.dict != nil {
			c.codes = gathered(c.codes, src.codes, rows)
		} else {
			c.str = gathered(c.str, src.str, rows)
		}
	case KindBool:
		c.bl = gathered(c.bl, src.bl, rows)
	default:
		panic(fmt.Sprintf("vector: Gather on invalid column %q", c.Name))
	}
}

// gathered appends src[rows[0]], src[rows[1]], … to dst.
func gathered[T any](dst, src []T, rows []int32) []T {
	n := len(dst)
	dst = slices.Grow(dst, len(rows))[:n+len(rows)]
	for k, r := range rows {
		dst[n+k] = src[r]
	}
	return dst
}

// Reset truncates the column to zero rows, retaining capacity. This backs
// the paper's pre-allocated, reusable f-Trees (§5, Vectorization). A shared
// column detaches from its storage backing instead of truncating it.
func (c *Column) Reset() {
	if c.shared {
		*c = Column{Name: c.Name, Kind: c.Kind}
		return
	}
	c.truncate()
}

// String slots retired by truncate hold this in assert builds.
const poisonStr = "\xde\xad"

// retire drops the references held by the used rows of a pointer-bearing
// slice and truncates it. Assert builds (-tags gesassert) stamp the rows
// with poison instead of zero, so code that reslices a recycled column past
// its length reads a sentinel, not a plausible empty value.
func retire[T any](s []T, poison T) []T {
	if assertEnabled {
		for i := range s {
			s[i] = poison
		}
	} else {
		clear(s)
	}
	return s[:0]
}

// truncate cuts every backing slice to zero rows, retaining capacity, and
// returns the bytes it had to zero. Only the rows in use are touched — see
// the invariant on Reinit.
func (c *Column) truncate() (cleared int) {
	cleared = len(c.str) * 16
	c.i64 = c.i64[:0]
	c.f64 = c.f64[:0]
	c.bl = c.bl[:0]
	c.vid = c.vid[:0]
	c.codes = c.codes[:0]
	clear(c.nulls)
	c.nulls = c.nulls[:0]
	c.str = retire(c.str, poisonStr)
	return cleared
}

// Reinit retargets a recycled column to a fresh identity, truncating every
// backing slice but retaining capacity, and returns the bytes it zeroed. It
// is the pooled counterpart of NewColumn (§5, memory pool): Reset preserves
// Name/Kind for within-query reuse, Reinit additionally clears the
// dict/shared state a previous owner may have left behind.
//
// Invariant: in a column that is not a shared view, the string slots at or
// past the slice length are empty (or, in assert builds, the poison retire
// leaves). Appends only ever write below the length, and every truncation —
// here, Reset, a shrinking Grow — zeroes the rows it cuts off. So a pooled
// column never pins a prior query's strings, and recycling costs what the last owner used, not what
// some earlier owner grew the capacity to: a Reinit of an empty column
// touches nothing. Pool.PutColumn is the one place that pays; the Reinit on
// the way out of the pool finds the column already empty.
func (c *Column) Reinit(name string, kind Kind) (cleared int) {
	if c.shared {
		*c = Column{}
	}
	c.Name, c.Kind = name, kind
	c.dict = nil
	return c.truncate()
}

// ReinitDict retargets a recycled column as an empty dictionary-encoded
// string column over d — the pooled counterpart of NewDictColumn.
func (c *Column) ReinitDict(name string, d *Dict) {
	c.Reinit(name, KindString)
	c.dict = d
}

// Clipped returns s without its spare capacity, reallocating only when
// append growth left some behind.
func Clipped[T any](s []T) []T {
	if cap(s) == len(s) {
		return s
	}
	return slices.Clone(s)
}

// Clip drops the spare capacity of a materialized column — storage calls it
// on its property columns when a bulk load ends.
func (c *Column) Clip() {
	c.mutCheck()
	c.i64, c.f64, c.str = Clipped(c.i64), Clipped(c.f64), Clipped(c.str)
	c.bl, c.vid, c.codes = Clipped(c.bl), Clipped(c.vid), Clipped(c.codes)
}

// Permute reorders a materialized column: entry i becomes the entry at
// rows[i], rows a permutation of the column's rows. Storage lays out a
// label's rows with it at the first seal.
func (c *Column) Permute(rows []int32) {
	c.mutCheck()
	c.i64, c.f64, c.str = permuted(c.i64, rows), permuted(c.f64, rows), permuted(c.str, rows)
	c.bl, c.vid, c.codes = permuted(c.bl, rows), permuted(c.vid, rows), permuted(c.codes, rows)
}

// permuted returns s[rows[0]], s[rows[1]], … (s itself when empty).
func permuted[T any](s []T, rows []int32) []T {
	if len(s) == 0 {
		return s
	}
	out := make([]T, len(rows))
	for i, r := range rows {
		out[i] = s[r]
	}
	return out
}

// MemBytes returns the accounted intermediate-result memory of the column.
// Shared columns account only their headers — the payload belongs to graph
// storage, which is the saving of aligned gathers. Dict columns account 4
// bytes per row; the dictionary payload is accounted once by its owning
// storage table.
func (c *Column) MemBytes() int {
	const base = 64
	if c.shared {
		return base
	}
	n := base + len(c.nulls)*8
	switch c.Kind {
	case KindInt64, KindDate:
		return n + len(c.i64)*8
	case KindVID:
		return n + len(c.vid)*4
	case KindFloat64:
		return n + len(c.f64)*8
	case KindString:
		if c.dict != nil {
			return n + len(c.codes)*4
		}
		n += len(c.str) * 16
		for _, s := range c.str {
			n += len(s)
		}
		return n
	case KindBool:
		return n + len(c.bl)
	default:
		return n
	}
}

// Clone returns a deep copy of the column (dictionaries are shared, being
// append-only; a clone of a shared column owns its copy).
func (c *Column) Clone() *Column {
	out := &Column{Name: c.Name, Kind: c.Kind, dict: c.dict}
	out.i64 = append([]int64(nil), c.i64...)
	out.f64 = append([]float64(nil), c.f64...)
	out.str = append([]string(nil), c.str...)
	out.bl = append([]bool(nil), c.bl...)
	out.vid = append([]VID(nil), c.vid...)
	out.codes = append([]uint32(nil), c.codes...)
	out.nulls = append([]uint64(nil), c.nulls...)
	return out
}
