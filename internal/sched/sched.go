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
// There is one morsel loop, RunMorsels, with one claim counter and one panic
// accounting. It keeps no per-claimant scratch: a query's buffers come from
// the query's own arena, which the caller may recycle as soon as RunMorsels
// returns (see its completion contract).
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
	tasks chan func()
	close sync.Once
}

// New starts a scheduler with the given worker count; values < 1 default to
// GOMAXPROCS.
func New(workers int) *Scheduler {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{tasks: make(chan func(), 4*workers)}
	for i := 0; i < workers; i++ {
		go func() {
			for t := range s.tasks {
				t()
			}
		}()
	}
	return s
}

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
// goroutine fan-out beyond the budget. One claimant is a plain inline loop in
// index order.
//
// fn runs concurrently with itself; it must confine writes to state indexed
// by Morsel.Index (or to non-overlapping row ranges). A panic in fn is
// re-raised on the calling goroutine.
//
// Completion contract: RunMorsels returns only once no fn call is in flight,
// and no fn call starts after it returns. The morsel count covers every fn
// call — a morsel counts as finished only after its fn returns, and a
// panicking claimant counts its own morsel and every unclaimed one, which it
// takes off the counter — so the caller wakes when the last fn has ended. A
// helper that starts after the last claim finds the counter spent and
// returns without calling fn. The caller may therefore recycle the query
// arena fn drew from as soon as RunMorsels returns.
func (s *Scheduler) RunMorsels(parallel, n, size int, fn func(Morsel)) {
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
	if parallel <= 1 {
		for i := 0; i < nm; i++ {
			fn(morselAt(i, size, n))
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
	)
	doneCh := make(chan struct{})
	finish := func(k int64) {
		if finished.Add(k) >= int64(nm) {
			closeOnce.Do(func() { close(doneCh) })
		}
	}
	claim := func() {
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
			fn(morselAt(i, size, n))
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
