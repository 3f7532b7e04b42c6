// Package sched implements the process-wide morsel-driven worker runtime
// (§2.1, Runtime). One bounded pool of workers serves every source of
// parallelism in the process: intra-query operators shard their parent
// f-Block rows into fixed-size morsels claimed off a shared counter, and
// concurrent queries — each on its caller's goroutine (an HTTP handler, a
// benchmark client) — draw their helpers from the same worker budget, so a
// saturated service degrades intra-query fan-out gracefully instead of
// over-subscribing the machine with uncoordinated per-operator goroutines.
//
// Determinism contract: RunMorsels invokes fn once per morsel with a stable
// Morsel.Index. Callers confine writes to morsel-indexed state and merge
// shard outputs in index order, which reproduces sequential output exactly —
// results are byte-identical regardless of worker count or scheduling order.
//
// There is one morsel loop, RunMorselsScratch: the claim counter, the panic
// accounting and the two-phase claimant-gate barrier exist once, RunMorsels
// is its no-scratch form, and a single claimant is a plain inline loop.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultMorselSize is the parent-row shard size operators use when they
// have no better estimate. It is a multiple of 64 so morsel boundaries fall
// on selection-vector word boundaries: concurrent morsels never touch the
// same bitset word.
const DefaultMorselSize = 256

// Morsel is one contiguous shard of rows.
type Morsel struct {
	// Index is the morsel's position in the sequence; merge per-morsel
	// outputs in this order to reproduce sequential results.
	Index int
	// Start and End delimit the half-open row range [Start, End).
	Start, End int
}

// NumMorsels returns the number of morsels covering n rows at the given
// size (ceil division; size <= 0 uses DefaultMorselSize).
func NumMorsels(n, size int) int {
	if size <= 0 {
		size = DefaultMorselSize
	}
	return (n + size - 1) / size
}

// Scheduler owns a fixed set of worker goroutines draining one task queue.
type Scheduler struct {
	workers int
	tasks   chan func()
	close   sync.Once
}

// New starts a scheduler with the given worker count; values < 1 default to
// GOMAXPROCS.
func New(workers int) *Scheduler {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{workers: workers, tasks: make(chan func(), 4*workers)}
	for i := 0; i < workers; i++ {
		go func() {
			for t := range s.tasks {
				t()
			}
		}()
	}
	return s
}

// Workers returns the pool size.
func (s *Scheduler) Workers() int { return s.workers }

// Close stops the workers once queued tasks drain. Only private schedulers
// (tests) call it; the global scheduler lives for the process.
func (s *Scheduler) Close() { s.close.Do(func() { close(s.tasks) }) }

// Submit enqueues one task on the pool without blocking; false means the
// queue is saturated and the caller should run the task itself. Background
// maintenance (the storage layer's family reseals) rides on this so it
// never stalls a mutating caller.
func (s *Scheduler) Submit(t func()) bool { return s.trySubmit(t) }

// trySubmit enqueues t unless the queue is full.
func (s *Scheduler) trySubmit(t func()) bool {
	select {
	case s.tasks <- t:
		return true
	default:
		return false
	}
}

var (
	globalMu sync.Mutex
	global   *Scheduler
)

// Global returns the shared process-wide scheduler, starting it on first
// use with GOMAXPROCS workers.
func Global() *Scheduler {
	globalMu.Lock()
	defer globalMu.Unlock()
	if global == nil {
		global = New(0)
	}
	return global
}

// RunMorsels shards [0,n) into size-row morsels and executes fn once per
// morsel, using up to parallel concurrent claimants: the calling goroutine
// plus helpers drawn from the worker pool. Claimants pull morsels off a
// shared atomic counter (the classic morsel-driven loop), so work balances
// across skewed shards. The caller always participates and helper submission
// never blocks — when the pool is saturated by other queries the loop simply
// runs with fewer claimants, guaranteeing progress without deadlock or
// goroutine fan-out beyond the budget.
//
// fn runs concurrently with itself; it must confine writes to state indexed
// by Morsel.Index (or to non-overlapping row ranges). A panic in fn is
// re-raised on the calling goroutine after all claimants stop.
//
// It is RunMorselsScratch with no scratch: there is one claim loop and one
// barrier.
func (s *Scheduler) RunMorsels(parallel, n, size int, fn func(Morsel)) {
	s.RunMorselsScratch(parallel, n, size, func() any { return nil }, nil, func(m Morsel, _ any) { fn(m) })
}

// RunMorselsScratch is RunMorsels with claimant-local scratch: every
// claimant (the caller and each helper that starts) calls mk once before its
// claim loop, passes the value to fn for every morsel it claims, and runs
// done on it when its loop ends — so worker buffers are allocated once per
// claimant and reused across all the morsels that claimant drains, instead
// of once per morsel (§5, memory pool). fn owns scratch exclusively for the
// duration of one morsel; done (nil allowed) typically returns pooled
// buffers to the query arena. done runs even when fn panics.
//
// The determinism contract of RunMorsels carries over unchanged: fn still
// runs once per morsel with a stable Morsel.Index, and scratch must never
// leak state between morsels that affects output.
//
// The barrier is two-phase. doneCh closes when every morsel has run, but a
// claimant's done — and a late-queued helper's whole mk/done bracket — can
// still be in flight at that instant, and both typically touch the query
// arena. So after doneCh the caller seals the claimant gate and waits for
// every registered claimant to exit; helpers that reach the gate after
// sealing return without ever calling mk. Only then may the caller release
// the arena (the engine recycles it into the next query, so a straggler
// touching it would corrupt that query's scratch).
func (s *Scheduler) RunMorselsScratch(parallel, n, size int, mk func() any, done func(any), fn func(Morsel, any)) {
	if n <= 0 {
		return
	}
	if size <= 0 {
		size = DefaultMorselSize
	}
	nm := NumMorsels(n, size)
	if parallel > nm {
		parallel = nm
	}
	release := func(sc any) {
		if done != nil {
			done(sc)
		}
	}
	if parallel <= 1 {
		// One claimant: a plain loop on the calling goroutine, in index
		// order — no goroutine, channel or gate.
		sc := mk()
		defer release(sc)
		for i := 0; i < nm; i++ {
			fn(morselAt(i, size, n), sc)
		}
		return
	}

	// Completion is tracked by counting finished morsels, not helper
	// goroutines: a helper queued behind long-running pool tasks may never
	// start, and the caller must not wait on it once every morsel is done.
	var (
		next, finished atomic.Int64
		closeOnce      sync.Once
		pmu            sync.Mutex
		pval           any
		pseen          bool

		gmu    sync.Mutex
		active int
		sealed bool
	)
	doneCh := make(chan struct{})
	idleCh := make(chan struct{})
	finish := func(k int64) {
		if finished.Add(k) >= int64(nm) {
			closeOnce.Do(func() { close(doneCh) })
		}
	}
	claim := func() {
		// Entry gate: register as a claimant unless the caller has sealed.
		gmu.Lock()
		if sealed {
			gmu.Unlock()
			return
		}
		active++
		gmu.Unlock()
		defer func() {
			gmu.Lock()
			active--
			last := sealed && active == 0
			gmu.Unlock()
			if last {
				close(idleCh)
			}
		}()
		sc := mk()
		defer release(sc)
		defer func() {
			if r := recover(); r != nil {
				pmu.Lock()
				if !pseen {
					pseen, pval = true, r
				}
				pmu.Unlock()
				// Stop further claims and account for the panicked morsel
				// plus everything left unclaimed, so the caller wakes.
				old := next.Swap(int64(nm))
				if old > int64(nm) {
					old = int64(nm)
				}
				finish(int64(nm) - old + 1)
			}
		}()
		for {
			i := int(next.Add(1)) - 1
			if i >= nm {
				return
			}
			fn(morselAt(i, size, n), sc)
			finish(1)
		}
	}

	for h := 0; h < parallel-1; h++ {
		if !s.trySubmit(claim) {
			break // pool saturated; the caller's loop below still drains everything
		}
	}
	claim()
	<-doneCh
	gmu.Lock()
	sealed = true
	idle := active == 0
	gmu.Unlock()
	if !idle {
		<-idleCh
	}
	if pseen {
		panic(pval)
	}
}

// morselAt returns morsel i of the [0,n) sharding.
func morselAt(i, size, n int) Morsel {
	lo := i * size
	hi := lo + size
	if hi > n {
		hi = n
	}
	return Morsel{Index: i, Start: lo, End: hi}
}
