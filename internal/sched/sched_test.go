package sched_test

import (
	"reflect"
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
	// The scratch form brackets the same loop with one mk and one done.
	var events []string
	s.RunMorselsScratch(1, 500, 100,
		func() any { events = append(events, "mk"); return &events },
		func(sc any) {
			if sc != &events {
				t.Errorf("done received %v, want the value mk returned", sc)
			}
			events = append(events, "done")
		},
		func(m sched.Morsel, sc any) {
			if sc != &events {
				t.Errorf("fn received %v, want the value mk returned", sc)
			}
			events = append(events, "fn")
			order = append(order, 5+m.Index)
		})
	if len(order) != 10 {
		t.Fatalf("ran %d morsels, want 10", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential fallback out of order: %v", order)
		}
	}
	if want := []string{"mk", "fn", "fn", "fn", "fn", "fn", "done"}; !reflect.DeepEqual(events, want) {
		t.Fatalf("scratch bracket = %v, want %v", events, want)
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

// The claimant gate (DESIGN §11): RunMorselsScratch must not return while
// any claimant is still inside its mk/fn/done bracket, and a helper that
// starts after the return must not enter the bracket at all — the caller
// recycles the arena the bracket draws from as soon as the call returns.

// gateProbe counts bracket activity the way an arena would feel it.
type gateProbe struct {
	doneDelay       time.Duration // how long a done hook holds the arena
	mks, dones, fns atomic.Int64
	inFlight        atomic.Int64 // claimants between mk entry and done exit, plus fn calls in progress
	returned        atomic.Bool  // set by the test once RunMorselsScratch is back
	late            atomic.Int64 // mk, fn or done entered after returned
}

func (p *gateProbe) enter() {
	if p.returned.Load() {
		p.late.Add(1)
	}
	p.inFlight.Add(1)
}

func (p *gateProbe) mk() any { p.enter(); p.mks.Add(1); return p }

func (p *gateProbe) done(any) {
	if p.returned.Load() {
		p.late.Add(1)
	}
	time.Sleep(p.doneDelay)
	p.dones.Add(1)
	p.inFlight.Add(-1)
}

// check asserts what must hold the instant RunMorselsScratch has returned.
func (p *gateProbe) check(t *testing.T) {
	t.Helper()
	if n := p.inFlight.Load(); n != 0 {
		t.Errorf("%d claimant brackets or fn calls still in flight after return", n)
	}
	if mk, dn := p.mks.Load(), p.dones.Load(); mk != dn || mk == 0 {
		t.Errorf("mk ran %d times, done %d times; want equal and > 0", mk, dn)
	}
}

func TestClaimantGateBracketsEveryClaimant(t *testing.T) {
	s := sched.New(4)
	defer s.Close()
	var p gateProbe
	var rows atomic.Int64
	s.RunMorselsScratch(4, 10000, 64, p.mk, p.done, func(m sched.Morsel, sc any) {
		p.enter()
		defer p.inFlight.Add(-1)
		if sc != &p {
			t.Errorf("fn received %v, want the claimant's scratch", sc)
		}
		rows.Add(int64(m.End - m.Start))
	})
	p.returned.Store(true)
	p.check(t)
	if rows.Load() != 10000 {
		t.Fatalf("covered %d rows, want 10000", rows.Load())
	}
}

func TestClaimantGateWaitsOutClaimantsOnPanic(t *testing.T) {
	s := sched.New(4)
	defer s.Close()
	// The first barrier phase ends when the last morsel finishes; that
	// claimant's done hook has yet to run. Give it a duration, and make the
	// last morsel a pool helper's, so a caller that returned on the first
	// phase alone gets back with the hook in flight.
	p := gateProbe{doneDelay: time.Millisecond}
	boom := make(chan struct{})
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v, want the morsel's panic value", r)
			}
		}()
		s.RunMorselsScratch(4, 6*64, 64, p.mk, p.done, func(m sched.Morsel, _ any) {
			p.enter()
			defer p.inFlight.Add(-1)
			p.fns.Add(1)
			if m.Index == 1 {
				// A middle morsel panics, once two other claimants are
				// inside fn.
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
	p.returned.Store(true)
	p.check(t)
	if mk := p.mks.Load(); mk < 3 {
		t.Errorf("only %d claimants started; the test needs three inside fn", mk)
	}
}

func TestClaimantGateTurnsAwayLateHelpers(t *testing.T) {
	const workers = 2
	s := sched.New(workers)
	defer s.Close()
	// Occupy every pool worker, so the helpers RunMorselsScratch submits sit
	// in the queue until after it has returned.
	release := make(chan struct{})
	busy := occupy(t, s, workers, release)
	var p gateProbe
	s.RunMorselsScratch(4, 5000, 64, p.mk, p.done, func(sched.Morsel, any) {
		p.enter()
		defer p.inFlight.Add(-1)
		p.fns.Add(1)
	})
	p.returned.Store(true)
	p.check(t)
	if mk, fn := p.mks.Load(), p.fns.Load(); mk != 1 || fn != int64(sched.NumMorsels(5000, 64)) {
		t.Fatalf("caller alone should have drained the loop: mk=%d fn=%d", mk, fn)
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
		t.Fatalf("%d bracket entries after RunMorselsScratch returned", n)
	}
	if mk, dn := p.mks.Load(), p.dones.Load(); mk != 1 || dn != 1 {
		t.Fatalf("late helpers ran the bracket: mk=%d done=%d, want 1/1", mk, dn)
	}
}
