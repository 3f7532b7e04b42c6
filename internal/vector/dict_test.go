package vector

import (
	"fmt"
	"sync"
	"testing"
)

// TestDictEmptyStringIsCodeZero pins the typed-zero invariant the gather
// path relies on: Column.Grow zero-fills code slots, and code 0 must resolve
// to "" — the same value the scalar path returns for missing properties.
func TestDictEmptyStringIsCodeZero(t *testing.T) {
	d := NewDict()
	if code, ok := d.Lookup(""); !ok || code != 0 {
		t.Fatalf(`Lookup("") = (%d, %v), want (0, true)`, code, ok)
	}
	if d.Str(0) != "" {
		t.Fatalf(`Str(0) = %q, want ""`, d.Str(0))
	}
	if c := d.Intern("a"); c != 1 {
		t.Fatalf("first real string got code %d, want 1", c)
	}
	if c := d.Intern(""); c != 0 {
		t.Fatalf(`re-interning "" returned %d, want 0`, c)
	}

	col := NewDictColumn("s", d)
	col.Grow(3)
	for i := 0; i < 3; i++ {
		if col.StringAt(i) != "" {
			t.Fatalf(`zero-filled row %d = %q, want ""`, i, col.StringAt(i))
		}
	}
	col.Set(1, String_("b"))
	if col.StringAt(1) != "b" || col.StringAt(0) != "" {
		t.Fatal("Set broke neighbors")
	}
}

// TestDictConcurrentReaders races lock-free Str/Len against interning: the
// interner appends within the table's capacity while readers resolve every
// code they have seen, and each must resolve to the string it was given.
func TestDictConcurrentReaders(t *testing.T) {
	const n = 5000
	d := NewDict()
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 1; i <= n; i++ {
			if c := d.Intern(fmt.Sprintf("s%d", i)); c != uint32(i) {
				t.Errorf("Intern(s%d) = %d", i, c)
				return
			}
		}
	}()
	for r := 0; r < 2; r++ {
		go func() {
			defer wg.Done()
			for seen := 0; seen <= n; {
				seen = d.Len()
				for c := 1; c < seen; c += 1 + seen/64 {
					if got, want := d.Str(uint32(c)), fmt.Sprintf("s%d", c); got != want {
						t.Errorf("Str(%d) = %q with Len %d, want %q", c, got, seen, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if d.Len() != n+1 { // "" + n interned
		t.Fatalf("Len = %d, want %d", d.Len(), n+1)
	}
}

// TestDictInternAmortized pins interning at O(1) amortized: 4 096 new strings
// into a dictionary of 32 768 may allocate only when the table or the map
// grows — a table copy per string would be two allocations per string.
func TestDictInternAmortized(t *testing.T) {
	const base, batch = 32768, 4096
	d := NewDict()
	for i := 0; i < base; i++ {
		d.Intern(fmt.Sprintf("base%d", i))
	}
	fresh := make([]string, 2*batch) // AllocsPerRun calls the function twice
	for i := range fresh {
		fresh[i] = fmt.Sprintf("fresh%d", i)
	}
	next := 0
	allocs := testing.AllocsPerRun(1, func() {
		for _, s := range fresh[next : next+batch] {
			d.Intern(s)
		}
		next += batch
	})
	if d.Len() != 1+base+2*batch {
		t.Fatalf("Len = %d, want %d", d.Len(), 1+base+2*batch)
	}
	if allocs > 64 {
		t.Fatalf("interning %d new strings into %d made %.0f allocations, want at most 64", batch, base, allocs)
	}
}

// TestDictIndexRoundTrips drives the open-addressing index through every
// growth step from its initial eight slots — so probes collide and wrap —
// while readers resolve published codes lock-free and look strings up under
// the lock. Every string must keep the code it was first given: Intern of a
// seen string, Lookup and Str all round-trip at every size.
func TestDictIndexRoundTrips(t *testing.T) {
	const n = 3000
	d := NewDict()
	key := func(i int) string { return fmt.Sprintf("k%d", i%1000) + string(rune('a'+i/1000)) }
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if c := d.Intern(key(i)); c != uint32(i+1) {
				t.Errorf("Intern(%s) = %d, want %d", key(i), c, i+1)
				return
			}
			// Every earlier string still resolves through the grown index.
			if j := i / 2; d.Intern(key(j)) != uint32(j+1) {
				t.Errorf("re-Intern(%s) after %d strings changed its code", key(j), i+1)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for seen := 1; seen <= n; {
			seen = d.Len()
			for c := 1; c < seen; c += 1 + seen/97 {
				if got, want := d.Str(uint32(c)), key(c-1); got != want {
					t.Errorf("Str(%d) = %q with Len %d, want %q", c, got, seen, want)
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for seen := 1; seen <= n; {
			seen = d.Len()
			c, ok := d.Lookup(key(seen - 2))
			if seen > 1 && (!ok || c != uint32(seen-1)) {
				t.Errorf("Lookup(%s) = (%d, %v) with Len %d", key(seen-2), c, ok, seen)
				return
			}
		}
	}()
	wg.Wait()
	for i := 0; i < n; i++ {
		if c, ok := d.Lookup(key(i)); !ok || c != uint32(i+1) || d.Str(c) != key(i) {
			t.Fatalf("Lookup(%s) = (%d, %v)", key(i), c, ok)
		}
	}
	if c, ok := d.Lookup("never"); ok {
		t.Fatalf(`Lookup("never") = (%d, true)`, c)
	}
	if c, ok := d.Lookup(""); !ok || c != 0 {
		t.Fatalf(`Lookup("") = (%d, %v), want (0, true)`, c, ok)
	}
}

// TestSharedColumnPanicsOnMutation pins the zero-copy share contract:
// operators must never write through a column shared from storage.
func TestSharedColumnPanicsOnMutation(t *testing.T) {
	c := NewColumn("age", KindInt64)
	c.AppendInt64(7)
	sh := c.ShareAs("p.age")
	if sh.Int64s()[0] != 7 {
		t.Fatal("shared column lost data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mutating a shared column did not panic")
		}
	}()
	sh.AppendInt64(8)
}
