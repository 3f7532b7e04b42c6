package sched_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ges/internal/sched"
)

func TestRunMorselsCoversEveryRowOnce(t *testing.T) {
	s := sched.New(4)
	defer s.Close()
	for _, n := range []int{0, 1, 63, 64, 255, 256, 1000, 4097} {
		seen := make([]int32, n)
		s.RunMorsels(8, n, 256, func(m sched.Morsel) {
			if m.Start < 0 || m.End > n || m.Start > m.End {
				t.Errorf("n=%d: bad morsel %+v", n, m)
			}
			for i := m.Start; i < m.End; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: row %d covered %d times", n, i, c)
			}
		}
	}
}

func TestRunMorselsDeterministicMergeOrder(t *testing.T) {
	s := sched.New(8)
	defer s.Close()
	const n, size = 10000, 64
	nm := sched.NumMorsels(n, size)
	shards := make([][]int, nm)
	s.RunMorsels(8, n, size, func(m sched.Morsel) {
		for i := m.Start; i < m.End; i++ {
			shards[m.Index] = append(shards[m.Index], i)
		}
	})
	// Concatenating shards in index order must reproduce 0..n-1 exactly.
	want := 0
	for _, sh := range shards {
		for _, v := range sh {
			if v != want {
				t.Fatalf("merge order broken: got %d want %d", v, want)
			}
			want++
		}
	}
	if want != n {
		t.Fatalf("merged %d rows, want %d", want, n)
	}
}

func TestRunMorselsSequentialFallback(t *testing.T) {
	s := sched.New(2)
	defer s.Close()
	// parallel=1 must run inline, in order, on the calling goroutine: the
	// appends below are unsynchronized, so -race flags any other goroutine.
	order := []int(nil)
	s.RunMorsels(1, 500, 100, func(m sched.Morsel) {
		order = append(order, m.Index)
	})
	if len(order) != 5 {
		t.Fatalf("ran %d morsels, want 5", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential fallback out of order: %v", order)
		}
	}
}

func TestRunMorselsPanicPropagates(t *testing.T) {
	s := sched.New(4)
	defer s.Close()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic did not propagate to the caller")
		}
	}()
	s.RunMorsels(4, 10000, 64, func(m sched.Morsel) {
		if m.Index == 7 {
			panic("boom")
		}
	})
}

// occupy submits n tasks that each hold a pool worker until release is
// closed, and returns the group that waits for them.
func occupy(t *testing.T, s *sched.Scheduler, n int, release chan struct{}) *sync.WaitGroup {
	t.Helper()
	var busy sync.WaitGroup
	busy.Add(n)
	for i := 0; i < n; i++ {
		if !s.Submit(func() { defer busy.Done(); <-release }) {
			t.Fatal("pool queue full")
		}
	}
	return &busy
}

func TestIntraQueryParallelismUnderInterQueryLoad(t *testing.T) {
	// Morsel loops must finish even when every pool worker is occupied by
	// long-running tasks: the caller participates, so saturation degrades
	// parallelism rather than deadlocking.
	s := sched.New(2)
	defer s.Close()
	release := make(chan struct{})
	busy := occupy(t, s, 2, release)
	var rows atomic.Int64
	s.RunMorsels(4, 5000, 64, func(m sched.Morsel) {
		rows.Add(int64(m.End - m.Start))
	})
	close(release)
	busy.Wait()
	if rows.Load() != 5000 {
		t.Fatalf("covered %d rows, want 5000", rows.Load())
	}
}

// The completion contract (DESIGN §11): RunMorsels must not return while
// any fn call is still in flight, and a helper that starts after the return
// must not call fn at all — the caller recycles the arena fn draws from as
// soon as the call returns.

// fnProbe counts fn calls the way an arena would feel them.
type fnProbe struct {
	fns      atomic.Int64
	inFlight atomic.Int64 // fn calls in progress
	returned atomic.Bool  // set by check once RunMorsels is back
	late     atomic.Int64 // fn calls entered after returned
}

// enter marks an fn call's start; the caller defers p.inFlight.Add(-1).
func (p *fnProbe) enter() {
	if p.returned.Load() {
		p.late.Add(1)
	}
	p.inFlight.Add(1)
	p.fns.Add(1)
}

// check asserts what must hold the instant RunMorsels has returned.
func (p *fnProbe) check(t *testing.T) {
	t.Helper()
	p.returned.Store(true)
	if n := p.inFlight.Load(); n != 0 {
		t.Errorf("%d fn calls still in flight after return", n)
	}
}

func TestRunMorselsWaitsOutFnOnPanic(t *testing.T) {
	s := sched.New(4)
	defer s.Close()
	// A middle morsel panics while two other claimants are inside fn, and
	// their morsels outlast it: a caller that returned on the panic alone
	// would get back with those calls in flight.
	var p fnProbe
	boom := make(chan struct{})
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v, want the morsel's panic value", r)
			}
		}()
		s.RunMorsels(4, 6*64, 64, func(m sched.Morsel) {
			p.enter()
			defer p.inFlight.Add(-1)
			if m.Index == 1 {
				for p.fns.Load() < 3 {
					time.Sleep(10 * time.Microsecond)
				}
				close(boom)
				panic("boom")
			}
			<-boom
			// Morsel 0 is the caller's in all but freak schedules (it starts
			// claiming before any helper is scheduled) and returns at once,
			// so the caller is parked on the barrier when a helper's morsel
			// finishes last.
			if m.Index != 0 {
				time.Sleep(2 * time.Millisecond)
			}
		})
	}()
	p.check(t)
	if n := p.fns.Load(); n < 3 {
		t.Errorf("only %d fn calls started; the test needs three at once", n)
	}
}

func TestRunMorselsTurnsAwayLateHelpers(t *testing.T) {
	const workers = 2
	s := sched.New(workers)
	defer s.Close()
	// Occupy every pool worker, so the helpers RunMorsels submits sit in the
	// queue until after it has returned.
	release := make(chan struct{})
	busy := occupy(t, s, workers, release)
	var p fnProbe
	nm := int64(sched.NumMorsels(5000, 64))
	s.RunMorsels(4, 5000, 64, func(sched.Morsel) {
		p.enter()
		p.inFlight.Add(-1)
	})
	p.check(t)
	if n := p.fns.Load(); n != nm {
		t.Fatalf("caller alone should have drained the loop: fn ran %d times, want %d", n, nm)
	}

	close(release)
	busy.Wait()
	// The queue is FIFO and each worker runs one task at a time, so once
	// every worker is inside one of these sentinels at the same moment the
	// queued helpers have all run to completion.
	var arrived, leave sync.WaitGroup
	arrived.Add(workers)
	leave.Add(1)
	for i := 0; i < workers; i++ {
		for !s.Submit(func() { arrived.Done(); leave.Wait() }) {
			time.Sleep(10 * time.Microsecond)
		}
	}
	arrived.Wait()
	leave.Done()
	if n := p.late.Load(); n != 0 {
		t.Fatalf("%d fn calls after RunMorsels returned", n)
	}
	if n := p.fns.Load(); n != nm {
		t.Fatalf("late helpers ran fn: %d calls, want %d", n, nm)
	}
}
