package vector

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// Dict is an append-only string dictionary backing dictionary-encoded
// columns: each distinct string is assigned a dense uint32 code in first-seen
// order, so gathers move 4-byte codes and equality predicates compare codes
// instead of string payloads. Codes are NOT order-preserving — range
// comparisons and sorts must resolve through Str.
//
// Interning takes a mutex (bulk load is single-writer; transactional overlay
// patches are rare), while Str and Len are lock-free, so the hot code→string
// resolution path never contends.
//
// Publication protocol: tab points at the code→string table sliced to its
// full capacity and n counts the published codes. Intern writes slot n —
// which no reader may index yet — and then stores n+1; a full table is
// first replaced by a larger copy, stored before the new n. A reader loads
// n and then tab, so the table it gets holds at least n slots, every one
// written before the store of n that it observed. Interning is therefore
// O(1) amortized and allocates only when the table or the index grows.
//
// The string→code index is an open-addressing table of code+1 (0 marks an
// empty slot), probed linearly from the string's hash and kept at most half
// full: 4 bytes per slot instead of a map entry holding a second string
// header. It is read and rebuilt only under mu.
type Dict struct {
	mu   sync.Mutex
	seed maphash.Seed
	idx  []uint32 // power-of-two length
	tab  atomic.Pointer[[]string]
	n    atomic.Uint32
}

// NewDict returns a dictionary with the empty string pre-interned as code 0,
// so zero-filled code slots (Column.Grow, missing properties) resolve to the
// same typed-zero "" the scalar path produces.
func NewDict() *Dict {
	d := &Dict{seed: maphash.MakeSeed(), idx: make([]uint32, 8)}
	zero := []string{""}
	d.tab.Store(&zero)
	d.n.Store(1)
	d.idx[d.slot(zero, "")] = 1
	return d
}

// slot returns the index position holding s, or the empty position where s
// would go. Callers hold mu.
func (d *Dict) slot(tab []string, s string) int {
	mask := len(d.idx) - 1
	for i := int(maphash.String(d.seed, s)) & mask; ; i = (i + 1) & mask {
		if c := d.idx[i]; c == 0 || tab[c-1] == s {
			return i
		}
	}
}

// Intern returns the code for s, assigning the next code on first sight.
func (d *Dict) Intern(s string) uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	tab := *d.tab.Load()
	i := d.slot(tab, s)
	if c := d.idx[i]; c != 0 {
		return c - 1
	}
	code := d.n.Load()
	if int(code) == len(tab) {
		grown := append(tab, "")
		grown = grown[:cap(grown)]
		d.tab.Store(&grown)
		tab = grown
	}
	tab[code] = s
	d.n.Store(code + 1)
	if 2*int(code+1) > len(d.idx) {
		d.rehash(tab[:code+1])
	} else {
		d.idx[i] = code + 1
	}
	return code
}

// rehash rebuilds the index at twice its size over the codes of tab.
func (d *Dict) rehash(tab []string) {
	d.idx = make([]uint32, 2*len(d.idx))
	for code, s := range tab {
		d.idx[d.slot(tab, s)] = uint32(code) + 1
	}
}

// Lookup returns the code for s without interning. ok is false when s has
// never been seen — for an equality predicate that means no row can match.
func (d *Dict) Lookup(s string) (code uint32, ok bool) {
	d.mu.Lock()
	c := d.idx[d.slot(*d.tab.Load(), s)]
	d.mu.Unlock()
	return c - 1, c != 0
}

// Str resolves a code to its string. Lock-free.
func (d *Dict) Str(code uint32) string {
	n := d.n.Load()
	return (*d.tab.Load())[:n][code]
}

// Len returns the number of distinct strings.
func (d *Dict) Len() int { return int(d.n.Load()) }

// MemBytes returns the accounted memory of the dictionary: the code→string
// table (headers over its capacity, plus the string bytes) and the index.
func (d *Dict) MemBytes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	tab := *d.tab.Load()
	n := 64 + 16*len(tab) + 4*len(d.idx)
	for _, s := range tab[:d.n.Load()] {
		n += len(s)
	}
	return n
}
