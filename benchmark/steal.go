package main

import (
	"bytes"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// The CPU clock (cpuclock.go) leaves out the time the hypervisor withholds
// from the client's thread, but not what that withholding does to the rest of
// the process: a collector starved of its vCPU hands its work to the client
// as assists, and a lock whose holder was descheduled is spun on. Under a
// burst, the CPU time of the same requests rises by a third or more. The
// kernel counts the withheld time ("steal" in /proc/stat), so intervals can
// be told apart by how much of them was stolen — a property of the machine
// that the program under test has no part in — and the gated metrics are
// taken over the intervals the hypervisor left alone.

// cleanFrac is the stolen share of an interval's CPU capacity up to which the
// interval counts as undisturbed.
const cleanFrac = 0.01

// mark is a point in time with the steal counter read at it.
type mark struct {
	at     time.Time
	stolen int64 // jiffies withheld from all CPUs since boot
}

func markNow() mark { return mark{at: time.Now(), stolen: stolenJiffies()} }

// stolenJiffies reads the aggregate steal counter; 0 where the kernel does
// not report one, which makes every interval count as undisturbed.
func stolenJiffies() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(b, []byte{'\n'})
	f := bytes.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 {
		return 0
	}
	n, err := strconv.ParseInt(string(f[8]), 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// stolenFrac is the share of the machine's CPU capacity between two marks
// that was withheld (USER_HZ is 100 on Linux).
func stolenFrac(from, to mark) float64 {
	capacity := to.at.Sub(from.at).Seconds() * 100 * float64(runtime.NumCPU())
	if capacity <= 0 {
		return 0
	}
	return float64(to.stolen-from.stolen) / capacity
}

// steadiest picks the intervals to measure on, given each one's stolen
// fraction: all that are undisturbed, or — when fewer than half are — the
// least disturbed half, so that a run made entirely under contention still
// reports its better part. It returns indexes in ascending order.
func steadiest(frac []float64) []int {
	order := make([]int, len(frac))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return frac[order[a]] < frac[order[b]] })
	keep := 0
	for keep < len(order) && frac[order[keep]] <= cleanFrac {
		keep++
	}
	keep = max(keep, (len(order)+1)/2)
	picked := order[:keep]
	sort.Ints(picked)
	return picked
}
