package vector

import "math/bits"

// Bitset is a word-packed validity bitmap used as the selection vector S of
// every f-Tree node (§4.2). Index i is valid when bit i is set.
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns a bitset of n bits, all set (all rows valid), matching
// the paper's convention that freshly produced f-Block rows are valid.
func NewBitset(n int) *Bitset {
	b := &Bitset{words: make([]uint64, (n+63)/64), n: n}
	b.SetAll()
	return b
}

// NewBitsetEmpty returns a bitset of n bits, all clear.
func NewBitsetEmpty(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of bits.
func (b *Bitset) Len() int { return b.n }

// Get reports whether bit i is set.
func (b *Bitset) Get(i int) bool {
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Set sets bit i.
func (b *Bitset) Set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (b *Bitset) Clear(i int) { b.words[i>>6] &^= 1 << (uint(i) & 63) }

// SetTo sets bit i to v.
func (b *Bitset) SetTo(i int, v bool) {
	if v {
		b.Set(i)
	} else {
		b.Clear(i)
	}
}

// SetAll sets every bit in [0, Len()).
func (b *Bitset) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trim()
}

// ClearAll clears every bit.
func (b *Bitset) ClearAll() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// trim zeroes the bits beyond n in the last word so Count stays exact.
func (b *Bitset) trim() {
	if rem := uint(b.n) & 63; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << rem) - 1
	}
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// CountRange returns the number of set bits in [lo, hi).
func (b *Bitset) CountRange(lo, hi int) int {
	if lo >= hi {
		return 0
	}
	first, last := lo>>6, (hi-1)>>6
	head := b.words[first] &^ (1<<(uint(lo)&63) - 1)
	tail := ^uint64(0) >> (63 - uint(hi-1)&63)
	if first == last {
		return bits.OnesCount64(head & tail)
	}
	c := bits.OnesCount64(head) + bits.OnesCount64(b.words[last]&tail)
	for _, w := range b.words[first+1 : last] {
		c += bits.OnesCount64(w)
	}
	return c
}

// Mask zeroes dst[i] wherever bit i is clear, without a branch per bit.
func (b *Bitset) Mask(dst []int64) {
	for i := range dst {
		dst[i] &= -int64(b.words[uint(i)>>6] >> (uint(i) & 63) & 1)
	}
}

// Any reports whether at least one bit is set.
func (b *Bitset) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// ClearWord clears bit i+k for every set bit k of mask; i is a multiple of
// 64. A vectorized kernel decides 64 rows into a mask and drops the
// rejected ones with one store.
func (b *Bitset) ClearWord(i int, mask uint64) { b.words[i>>6] &^= mask }

// NextSet returns the index of the first set bit at or after i, or -1.
func (b *Bitset) NextSet(i int) int {
	if i >= b.n {
		return -1
	}
	w := i >> 6
	word := b.words[w] &^ ((1 << (uint(i) & 63)) - 1)
	for {
		if word != 0 {
			idx := w<<6 + bits.TrailingZeros64(word)
			if idx >= b.n {
				return -1
			}
			return idx
		}
		w++
		if w >= len(b.words) {
			return -1
		}
		word = b.words[w]
	}
}

// Clone returns a deep copy of the bitset.
func (b *Bitset) Clone() *Bitset {
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	return &Bitset{words: w, n: b.n}
}

// Append extends the bitset by one bit with the given value.
func (b *Bitset) Append(v bool) {
	if b.n&63 == 0 {
		b.words = append(b.words, 0)
	}
	b.n++
	b.SetTo(b.n-1, v)
}

// Resize grows (or shrinks) the bitset to n bits; newly added bits are set
// when valid is true.
func (b *Bitset) Resize(n int, valid bool) {
	old := b.n
	need := (n + 63) / 64
	for len(b.words) < need {
		b.words = append(b.words, 0)
	}
	b.words = b.words[:need]
	b.n = n
	if n > old && valid {
		for i := old; i < n; i++ {
			b.Set(i)
		}
	}
	b.trim()
}

// Reinit resizes the bitset to n bits with every bit set (valid=true) or
// clear, retaining word capacity — the recycling counterpart of NewBitset /
// NewBitsetEmpty for pooled selection vectors (§5, memory pool).
func (b *Bitset) Reinit(n int, valid bool) {
	need := (n + 63) / 64
	if cap(b.words) < need {
		b.words = make([]uint64, need)
	} else {
		b.words = b.words[:need]
	}
	b.n = n
	if valid {
		b.SetAll()
	} else {
		b.ClearAll()
	}
}

// MemBytes returns the accounted memory of the bitset.
func (b *Bitset) MemBytes() int { return len(b.words)*8 + 16 }
