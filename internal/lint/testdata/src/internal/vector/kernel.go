// Kernel-purity fixtures (R7): annotated kernels must be transitively
// allocation-, lock-, and spawn-free. The positive cases reach an impure
// site through a helper, a mutual-recursion cycle, a mutex, and an
// unanalyzable dynamic call; the negative cases cover allowlisted external
// packages, pure recursion, and a justified alloc-ok waiver. The recursive
// pairs double as the fixed-point convergence fixture for
// TestSummaryConvergence.
package vector

import (
	"math/bits"
	"sync"
)

// pureStep is a pure helper kernels may call freely.
func pureStep(x int) int { return x*2 + 1 }

// allocHelper grows a scratch buffer — an allocation one call away.
func allocHelper(n int) int {
	buf := make([]int, n)
	return len(buf)
}

// KPure calls only allowlisted externals (math/bits) and a pure module
// helper (R7 negative).
//
//geslint:kernel
func KPure(xs []uint64) int {
	total := 0
	for _, x := range xs {
		total += bits.OnesCount64(x)
	}
	return pureStep(total)
}

// KBadAlloc reaches an allocation through a helper; the finding names the
// root site and the call chain.
//
//geslint:kernel
func KBadAlloc(n int) int { // want R7
	return allocHelper(n)
}

// KWaivedAlloc amortizes growth under a justified waiver; the waiver is
// visible in the summary, so the kernel stays pure (R7 negative).
//
//geslint:kernel
func KWaivedAlloc(dst []int, v int) []int {
	//geslint:alloc-ok fixture: amortized append growth, accepted by design
	return append(dst, v)
}

// guard owns the mutex KBadLock takes.
type guard struct{ mu sync.Mutex }

// KBadLock acquires a mutex inside a kernel; locks are never waivable.
//
//geslint:kernel
func (g *guard) KBadLock() int { // want R7
	g.mu.Lock()
	g.mu.Unlock()
	return 0
}

// KBadDynamic calls through a function value — unanalyzable, so impure.
//
//geslint:kernel
func KBadDynamic(f func(int) int, x int) int { // want R7
	return f(x)
}

// KEvenSteps and KOddSteps are mutually recursive and pure: the summary
// fixed point must converge without marking either impure (R7 negative).
//
//geslint:kernel
func KEvenSteps(n int) int {
	if n <= 0 {
		return 0
	}
	return KOddSteps(n - 1)
}

// KOddSteps is the other half of the pure cycle.
//
//geslint:kernel
func KOddSteps(n int) int {
	if n <= 0 {
		return 1
	}
	return KEvenSteps(n - 1)
}

// badPing and badPong form an impure cycle: badPong allocates, so impurity
// must propagate around the cycle and out to the kernel entering it.
func badPing(n int) []int {
	if n <= 0 {
		return nil
	}
	return badPong(n - 1)
}

func badPong(n int) []int {
	out := make([]int, 1)
	if n > 0 {
		out = badPing(n - 1)
	}
	return out
}

// KBadCycle enters the impure cycle.
//
//geslint:kernel
func KBadCycle(n int) int { // want R7
	return len(badPing(n))
}

// KBareWaiver shows a bare opt-out: the directive is itself a finding and
// does not waive the allocation it sits above. The function is not a
// kernel, so the unwaived site is otherwise harmless.
func KBareWaiver(n int) []int {
	// want-below R7
	//geslint:alloc-ok
	return make([]int, n)
}

// KMisspelt carries a misspelt kernel marker. The unknown directive is a
// finding (R0) rather than a silent opt-out of R7.
//
//geslint:kernal // want R0
func KMisspelt(n int) []int {
	return make([]int, n)
}
