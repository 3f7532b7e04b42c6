package op

import (
	"math/rand"
	"slices"
	"testing"
)

// TestNewestTopK holds the loose keys' bounded heap to a full sort: the K
// largest keys within the bound, ascending, for K below, at and past the
// number of keys, with many ties.
func TestNewestTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		keys := make([]int64, rng.Intn(60))
		for i := range keys {
			keys[i] = rng.Int63n(12)
		}
		n := Newest{K: 1 + rng.Intn(40), Bounded: trial%3 != 0, Inclusive: trial%2 == 0, Below: rng.Int63n(14)}
		want := slices.DeleteFunc(slices.Clone(keys), func(k int64) bool { return !n.passes(k) })
		slices.Sort(want)
		want = want[max(0, len(want)-n.K):]
		if got := n.topK(keys); !slices.Equal(got, want) {
			t.Fatalf("%+v of %v: got %v, want %v", n, keys, got, want)
		}
	}
}
