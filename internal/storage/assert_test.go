//go:build gesassert

package storage

import (
	"testing"

	"ges/internal/vector"
)

// TestAssertDoublePutPanics checks the poison-on-release discipline of
// -tags gesassert builds: putting the same buffer twice finds the release
// sentinel intact and panics instead of silently double-pooling it (which
// would hand one buffer to two owners).
func TestAssertDoublePutPanics(t *testing.T) {
	p := NewPool()
	buf := p.GetVIDs(32)
	p.PutVIDs(buf)
	defer func() {
		if recover() == nil {
			t.Fatal("double PutVIDs did not panic under -tags gesassert")
		}
	}()
	p.PutVIDs(buf)
}

// TestAssertUseAfterReleasePanics checks the companion half: a caller that
// keeps writing through a buffer after Put breaks the sentinel and is caught
// the next time the pool hands that buffer out. Under the race detector
// sync.Pool drops a random quarter of its puts, so one tampered buffer may
// simply never come back; the attempt repeats until one does.
func TestAssertUseAfterReleasePanics(t *testing.T) {
	p := NewPool()
	caught := func() (panicked bool) {
		buf := p.GetVIDs(32)
		p.PutVIDs(buf)
		buf = buf[:1]
		buf[0] = 42 // illegal write-after-release
		defer func() { panicked = recover() != nil }()
		// The same goroutine's next Get drains sync.Pool's private slot, so
		// the tampered buffer comes straight back and checkPoison fires.
		p.GetVIDs(32)
		return false
	}
	for try := 0; try < 32; try++ {
		if caught() {
			return
		}
	}
	t.Fatal("use-after-release was not detected on the next Get")
}

// TestAssertCleanCycleQuiet checks the discipline's false-positive guard: a
// legal get/use/put/get cycle must not trip either panic — including a
// buffer that was asked for with length zero and never written.
func TestAssertCleanCycleQuiet(t *testing.T) {
	p := NewPool()
	for i := 0; i < 100; i++ {
		buf := p.GetVIDs(64)
		for k := 0; k < 64; k++ {
			buf = append(buf, vector.VID(k))
		}
		p.PutVIDs(buf)
		p.PutVIDs(p.GetVIDs(0))
	}
}

// TestAssertTailKeepsSentinel checks what a get leaves past the length it was
// asked for: the release sentinel, so code that reslices a recycled buffer
// beyond its request reads 0xDEADBEEF rather than a plausible zero.
func TestAssertTailKeepsSentinel(t *testing.T) {
	p := NewPool()
	for try := 0; try < 32; try++ { // sync.Pool drops some puts under -race
		p.PutVIDs(append(p.GetVIDs(64), 1, 2, 3))
		got := p.GetVIDs(40)
		if tail := got[40:cap(got)]; tail[0] == poisonVID {
			for i, v := range tail {
				if v != poisonVID {
					t.Fatalf("tail slot %d holds %d, want the release sentinel", 40+i, v)
				}
			}
			return
		}
	}
	t.Fatal("no recycled buffer came back in 32 tries")
}
