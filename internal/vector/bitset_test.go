package vector

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d, want 130", b.Len())
	}
	if got := b.Count(); got != 130 {
		t.Fatalf("fresh bitset Count = %d, want 130 (all valid)", got)
	}
	b.Clear(0)
	b.Clear(64)
	b.Clear(129)
	if got := b.Count(); got != 127 {
		t.Fatalf("Count after 3 clears = %d, want 127", got)
	}
	if b.Get(0) || b.Get(64) || b.Get(129) {
		t.Fatal("cleared bits still read as set")
	}
	b.Set(64)
	if !b.Get(64) {
		t.Fatal("Set(64) did not stick")
	}
}

func TestBitsetEmptyAndSetAll(t *testing.T) {
	b := NewBitsetEmpty(77)
	if b.Any() {
		t.Fatal("empty bitset reports Any")
	}
	b.SetAll()
	if b.Count() != 77 {
		t.Fatalf("Count after SetAll = %d, want 77", b.Count())
	}
	b.ClearAll()
	if b.Count() != 0 {
		t.Fatalf("Count after ClearAll = %d, want 0", b.Count())
	}
}

func TestBitsetNextSet(t *testing.T) {
	b := NewBitsetEmpty(200)
	for _, i := range []int{3, 64, 65, 130, 199} {
		b.Set(i)
	}
	var got []int
	for i := b.NextSet(0); i >= 0; i = b.NextSet(i + 1) {
		got = append(got, i)
	}
	want := []int{3, 64, 65, 130, 199}
	if len(got) != len(want) {
		t.Fatalf("NextSet walk = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NextSet walk = %v, want %v", got, want)
		}
	}
	if b.NextSet(200) != -1 {
		t.Fatal("NextSet past end should be -1")
	}
}

func TestBitsetAppendResize(t *testing.T) {
	b := NewBitsetEmpty(0)
	for i := 0; i < 100; i++ {
		b.Append(i%3 == 0)
	}
	if b.Len() != 100 {
		t.Fatalf("Len after appends = %d", b.Len())
	}
	want := 0
	for i := 0; i < 100; i++ {
		if i%3 == 0 {
			want++
		}
		if b.Get(i) != (i%3 == 0) {
			t.Fatalf("bit %d wrong after Append", i)
		}
	}
	if b.Count() != want {
		t.Fatalf("Count = %d, want %d", b.Count(), want)
	}
	b.Resize(150, true)
	if b.Count() != want+50 {
		t.Fatalf("Count after Resize(valid) = %d, want %d", b.Count(), want+50)
	}
	b.Resize(10, false)
	if b.Len() != 10 {
		t.Fatalf("Len after shrink = %d", b.Len())
	}
}

// Property: Count, and CountRange over every range, equal a naive per-bit
// count after arbitrary operations, and Mask keeps exactly the values at
// set bits.
func TestBitsetCountProperty(t *testing.T) {
	f := func(n uint8, ops []uint16) bool {
		size := int(n) + 1
		b := NewBitsetEmpty(size)
		ref := make([]bool, size)
		for _, o := range ops {
			i := int(o) % size
			switch (o / 256) % 3 {
			case 0:
				b.Set(i)
				ref[i] = true
			case 1:
				b.Clear(i)
				ref[i] = false
			case 2:
				b.SetTo(i, o%2 == 0)
				ref[i] = o%2 == 0
			}
		}
		want := 0
		for i, v := range ref {
			if v != b.Get(i) {
				return false
			}
			if v {
				want++
			}
		}
		dst := make([]int64, size)
		for i := range dst {
			dst[i] = int64(i) + 1
		}
		b.Mask(dst)
		for i, v := range dst {
			if (ref[i] && v != int64(i)+1) || (!ref[i] && v != 0) {
				return false
			}
		}
		for lo := 0; lo <= size; lo++ {
			in := 0
			for hi := lo; hi <= size; hi++ {
				if b.CountRange(lo, hi) != in {
					return false
				}
				if hi < size && ref[hi] {
					in++
				}
			}
		}
		return b.Count() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: NextSet visits exactly the set bits in order.
func TestBitsetNextSetProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		size := 1 + rng.Intn(300)
		b := NewBitsetEmpty(size)
		var want []int
		for i := 0; i < size; i++ {
			if rng.Intn(3) == 0 {
				b.Set(i)
				want = append(want, i)
			}
		}
		var got []int
		for i := b.NextSet(0); i >= 0; i = b.NextSet(i + 1) {
			got = append(got, i)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d set bits, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: walk mismatch at %d", trial, i)
			}
		}
	}
}
