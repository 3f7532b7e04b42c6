package main

import (
	"encoding/json"
	"strconv"
	"time"
)

// The CPU clock (cpuclock.go) and the steal filter (steal.go) leave out the
// time the machine withholds, not that the machine runs the same code at a
// different speed from one minute to the next: when the host's other tenants
// are busy, branchy code and code that streams through memory take up to
// twice as long here, while a floating-point loop hardly moves. So the
// client interleaves a fixed piece of work of its own — the reference pass
// — with the requests, on the same thread and the same clock, and the gated
// timings are reported at the speed at which a pass takes refNominal: a
// block of requests during which the passes took 1.3× as long has its CPU
// time divided by 1.3. The pass is stdlib and benchmark code only, so no
// change to the engine moves it, and it allocates nothing, so the engine's
// garbage does not reach it through the collector.
//
// The pass is the two things the request path leans on, one part to two in
// time: the JSON scanner plus number and string encoding (branchy,
// cache-resident), and clearing memory that is not in the core's cache (what
// arena release and fresh allocation do). On ten-seed A/A sets the
// normalised throughput spread by half of what the raw one did; see
// README.md for the numbers and for the kernels that were tried and dropped.

const (
	// refEvery paces the passes: one pass per this much wall time costs the
	// client about 1 % of its time.
	refEvery = 25 * time.Millisecond
	// refNominal is what one pass takes on the reference box (2 vCPUs of a
	// Xeon at 2.1 GHz) when its neighbours are quiet.
	refNominal = 300 * time.Microsecond

	refScans     = 26      // JSON scan + encode rounds: about 100 µs
	refClear     = 2 << 20 // bytes cleared per pass: about 200 µs
	refRingBytes = 32 << 20
)

var refDoc = []byte(`{"name":"IS1","params":{"personId":123456,"tag":"abc","maxDate":1354320000000},"rows":[[1,"Jan","Novak","1985-03-02",1354320000000,"10.0.0.1","Firefox",77],[2,"Eva","Maly","1990-11-12",1354320000123,"10.0.0.2","Chrome",78]]}`)

// refSample is one timed pass.
type refSample struct {
	at time.Time
	ns int64 // CPU time of the calling thread
}

// reference runs and records the passes of one client. The caller must have
// its goroutine locked to its thread.
type reference struct {
	ring    []byte // cleared a piece at a time, round and round: always cold in L2
	off     int
	buf     []byte
	sink    int
	last    time.Time
	samples []refSample
}

func newReference() *reference {
	return &reference{ring: make([]byte, refRingBytes), buf: make([]byte, 0, 1024)}
}

// heapBytes is what the reference holds on the Go heap, for heap_live_mb to
// leave out.
func (r *reference) heapBytes() int {
	return cap(r.ring) + cap(r.buf) + cap(r.samples)*24
}

// tick runs a pass if refEvery has gone by since the last one.
func (r *reference) tick(now time.Time) {
	if now.Sub(r.last) < refEvery {
		return
	}
	r.last = now
	c0 := threadTime()
	for i := 0; i < refScans; i++ {
		if !json.Valid(refDoc) {
			panic("reference: the fixed document is not JSON")
		}
		r.buf = r.buf[:0]
		for j := 0; j < 12; j++ {
			r.buf = strconv.AppendInt(r.buf, int64(1354320000000+i*j), 10)
			r.buf = strconv.AppendQuote(r.buf, "Firefox 10.0.0.1")
		}
		r.sink += len(r.buf)
	}
	if r.off+refClear > len(r.ring) {
		r.off = 0
	}
	clear(r.ring[r.off : r.off+refClear])
	r.off += refClear
	r.samples = append(r.samples, refSample{at: now, ns: int64(threadTime() - c0)})
}

// slowdown is how much longer than refNominal the passes around [from, to]
// took: the median over the passes from one refEvery before to one after, or
// over the whole run if there was none (1 without any pass at all).
func (r *reference) slowdown(from, to time.Time) float64 {
	from, to = from.Add(-refEvery), to.Add(refEvery)
	var near, all []int64
	for _, s := range r.samples {
		all = append(all, s.ns)
		if !s.at.Before(from) && !s.at.After(to) {
			near = append(near, s.ns)
		}
	}
	if len(near) == 0 {
		near = all
	}
	if len(near) == 0 {
		return 1
	}
	return median(near) / float64(refNominal)
}
