package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The gated timings are read off CPU clocks, not the wall clock. This
// benchmark runs on small virtual machines whose hypervisor withholds the
// CPUs in bursts — at times a fifth of all CPU time for minutes — and the
// wall clock then measures the neighbours: on unchanged code, medians of ten
// runs moved by up to 39 % between one quarter of an hour and the next. The
// kernel charges neither withheld nor descheduled time to a thread, so the
// thread's CPU clock leaves both out (a fixed loop read 122–219 ms on the wall
// clock and 121–133 ms on this one). It also leaves out time the thread
// spends blocked — on a lock the writer holds, in a stop-the-world pause —
// which the wall-clock lat.* metrics of the traced run keep. What it cannot
// leave out is that the machine itself runs slower at times; see README.md.
const clockThreadCPU = 3 // CLOCK_THREAD_CPUTIME_ID: the calling thread

// threadTime reads the calling thread's CPU clock. The call cannot block, so
// it bypasses the scheduler's syscall bookkeeping; it costs about half a
// microsecond.
func threadTime() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPU, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error()) // the clock exists on every Linux
	}
	return time.Duration(ts.Nano())
}

// userTime is the CPU time all threads of the process have spent in user
// mode: what a set-up is charged. Kernel time is left out: a set-up's is page
// faults on fresh heap, which the hypervisor serves, and on unchanged code it
// went from 0.45 s to 1.5 s per set-up when the host was busy, while the
// 2.3 s of user time moved by a quarter.
func userTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error()) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano())
}
