package vector

import (
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
// O(1) amortized and allocates only when the table or the map grows.
type Dict struct {
	mu    sync.Mutex
	byStr map[string]uint32
	tab   atomic.Pointer[[]string]
	n     atomic.Uint32
}

// NewDict returns a dictionary with the empty string pre-interned as code 0,
// so zero-filled code slots (Column.Grow, missing properties) resolve to the
// same typed-zero "" the scalar path produces.
func NewDict() *Dict {
	d := &Dict{byStr: map[string]uint32{"": 0}}
	zero := []string{""}
	d.tab.Store(&zero)
	d.n.Store(1)
	return d
}

// Intern returns the code for s, assigning the next code on first sight.
func (d *Dict) Intern(s string) uint32 {
	d.mu.Lock()
	code, ok := d.byStr[s]
	if !ok {
		tab := *d.tab.Load()
		code = d.n.Load()
		d.byStr[s] = code
		if int(code) == len(tab) {
			grown := append(tab, "")
			grown = grown[:cap(grown)]
			d.tab.Store(&grown)
			tab = grown
		}
		tab[code] = s
		d.n.Store(code + 1)
	}
	d.mu.Unlock()
	return code
}

// Lookup returns the code for s without interning. ok is false when s has
// never been seen — for an equality predicate that means no row can match.
func (d *Dict) Lookup(s string) (code uint32, ok bool) {
	d.mu.Lock()
	code, ok = d.byStr[s]
	d.mu.Unlock()
	return code, ok
}

// Str resolves a code to its string. Lock-free.
func (d *Dict) Str(code uint32) string {
	n := d.n.Load()
	return (*d.tab.Load())[:n][code]
}

// Len returns the number of distinct strings.
func (d *Dict) Len() int { return int(d.n.Load()) }

// MemBytes returns the accounted memory of the dictionary payload (string
// headers + bytes + map overhead).
func (d *Dict) MemBytes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 64
	for s := range d.byStr {
		n += 2*16 + 2*len(s) + 8 // slice entry + map entry
	}
	return n
}
