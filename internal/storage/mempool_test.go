package storage

import (
	"math/rand"
	"sync"
	"testing"

	"ges/internal/vector"
)

// TestPoolGetAlwaysFreshLength is the demotion property test: through
// randomized Get/append/Put cycles — including buffers grown by append to
// capacities that fall between size classes — every GetVIDs must return a
// zero-length buffer whose capacity satisfies the request. A buffer parked in
// a class it cannot fully serve, or returned with stale length, fails here.
func TestPoolGetAlwaysFreshLength(t *testing.T) {
	p := NewPool()
	rng := rand.New(rand.NewSource(42))
	var held [][]vector.VID
	for step := 0; step < 20000; step++ {
		switch rng.Intn(3) {
		case 0, 1:
			n := rng.Intn(1 << uint(3+rng.Intn(13))) // spans all classes and beyond
			buf := p.GetVIDs(n)
			if len(buf) != 0 {
				t.Fatalf("step %d: GetVIDs(%d) returned stale length %d", step, n, len(buf))
			}
			if cap(buf) < n {
				t.Fatalf("step %d: GetVIDs(%d) returned capacity %d", step, n, cap(buf))
			}
			// Grow past the requested size so the eventual Put sees an
			// off-class capacity and must demote.
			grow := rng.Intn(2 * (n + 1))
			for k := 0; k < grow; k++ {
				buf = append(buf, vector.VID(k))
			}
			held = append(held, buf)
		case 2:
			if len(held) == 0 {
				continue
			}
			i := rng.Intn(len(held))
			buf := held[i]
			held[i] = held[len(held)-1]
			held = held[:len(held)-1]
			p.PutVIDs(buf)
		}
	}
	if st := p.DetailedStats(); st.Gets == 0 || st.Puts == 0 {
		t.Fatalf("property test exercised nothing: gets=%d puts=%d", st.Gets, st.Puts)
	}
}

// TestPoolOffClassDemotion pins the mempool.go demotion rule directly: a
// buffer whose capacity lies strictly between two classes must be parked in
// the lower class, so a subsequent Get from that class still gets its full
// capacity guarantee.
func TestPoolOffClassDemotion(t *testing.T) {
	p := NewPool()
	// cap 100 sits between class 3 (64) and class 4 (128).
	buf := make([]vector.VID, 77, 100)
	p.PutVIDs(buf)
	// A class-4 request (65..128) must NOT be served by the cap-100 buffer.
	got := p.GetVIDs(128)
	if len(got) != 0 {
		t.Fatalf("stale length %d", len(got))
	}
	if cap(got) < 128 {
		t.Fatalf("demotion violated: Get(128) returned capacity %d", cap(got))
	}
	// A class-3 request may reuse it; either way the contract holds.
	got = p.GetVIDs(64)
	if len(got) != 0 || cap(got) < 64 {
		t.Fatalf("class-3 get broken: len=%d cap=%d", len(got), cap(got))
	}
}

// TestPoolConcurrentUse hammers the pool from many goroutines — the shape the
// parallel expansion paths now produce — and relies on -race for detection.
func TestPoolConcurrentUse(t *testing.T) {
	p := NewPool()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				n := rng.Intn(4096)
				buf := p.GetVIDs(n)
				if len(buf) != 0 || cap(buf) < n {
					panic("pool contract violated under concurrency")
				}
				for k := 0; k < n; k++ {
					buf = append(buf, vector.VID(k))
				}
				p.PutVIDs(buf)
			}
		}(int64(w))
	}
	wg.Wait()
}
