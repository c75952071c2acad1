package main

import (
	"math"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is a small shared VM whose cores flip, second
// by second, between full speed and about half of it (a busy SMT sibling on
// the machine below), and the share of slow seconds drifts over minutes. As
// measured, ten runs of one workload spread by 20–40 % of their median, which
// is more than the largest regression bound the benchmark may set. The
// yardstick is how the harness takes that out: a fixed piece of work that
// shares no code with the repository, timed on the otherwise idle host right
// before and after every op (about once a second under serve_mixed), so each
// op's time can be divided by how slow the host was around it. The readings as
// measured are reported beside the corrected ones.
//
// It has a core-bound half (a small dense product that stays in L2) and a
// memory-bound half (a read-modify-write pass over 32 MB); a reading is the
// geometric mean of the two halves' slowdowns, because the ops under test are
// a mix of both. Single readings are noisy (the host's speed flickers faster
// than a reading lasts), so an interval is corrected by the median of all
// readings within yardWindow of it.
//
// The arrays live outside the Go heap: on it they would be 36 MB of live data
// that the program under test does not have, and the collector, which paces
// itself by the live heap, would run a tenth as often as it does for a user.
const (
	yardN      = 160     // the product is yardN³ multiply-adds
	yardWords  = 4 << 20 // 32 MB of float64
	yardWindow = 2500 * time.Millisecond
	// The halves' times on the reference host in its calm phase. They only
	// fix the scale: with other constants every corrected time changes by
	// the same factor.
	yardCoreRefMs = 2.25
	yardMemRefMs  = 6.5
)

var yard struct {
	a, b, c []float64
	mem     []float64

	mu  sync.Mutex
	log []yardReading
}

// yardReading is one run of the yardstick.
type yardReading struct {
	at   time.Time
	slow float64
}

func init() {
	const nn = yardN * yardN
	raw, err := syscall.Mmap(-1, 0, (3*nn+yardWords)*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("perf: yardstick memory: " + err.Error())
	}
	all := unsafe.Slice((*float64)(unsafe.Pointer(&raw[0])), 3*nn+yardWords)
	yard.a, yard.b, yard.c, yard.mem = all[:nn], all[nn:2*nn], all[2*nn:3*nn], all[3*nn:]
	for i := range yard.a {
		yard.a[i], yard.b[i] = float64(i%13)+0.5, float64(i%7)-0.25
	}
	yardstick() // touches every page once, so no reading pays the page faults
}

// hostSlowdown runs the yardstick once, logs the reading and returns it: 1
// on the reference host in its calm phase, 1.25 when the same work takes a
// quarter longer.
func hostSlowdown() float64 {
	core, mem := yardstick()
	r := yardReading{at: time.Now(), slow: math.Sqrt(core / yardCoreRefMs * mem / yardMemRefMs)}
	yard.mu.Lock()
	yard.log = append(yard.log, r)
	yard.mu.Unlock()
	return r.slow
}

// slowdownOver returns the host slowdown to correct the interval [from, to]
// by: the median of the readings taken within yardWindow of it, or the
// nearest reading when there is none.
func slowdownOver(from, to time.Time) float64 {
	lo, hi := from.Add(-yardWindow), to.Add(yardWindow)
	yard.mu.Lock()
	defer yard.mu.Unlock()
	var near []float64
	nearest, gap := 1.0, time.Duration(math.MaxInt64)
	for _, r := range yard.log {
		if !r.at.Before(lo) && !r.at.After(hi) {
			near = append(near, r.slow)
		}
		if d := r.at.Sub(from).Abs(); d < gap {
			nearest, gap = r.slow, d
		}
	}
	if len(near) == 0 {
		return nearest
	}
	return median(near)
}

// yardstick times the two halves, in ms. Each is the fastest of a few
// repeats: being preempted in the middle of one says nothing about how fast
// the cores are.
func yardstick() (core, mem float64) {
	core, mem = math.Inf(1), math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		clear(yard.c)
		for i := 0; i < yardN; i++ {
			for k := 0; k < yardN; k++ {
				a := yard.a[i*yardN+k]
				row := yard.b[k*yardN : (k+1)*yardN]
				out := yard.c[i*yardN : (i+1)*yardN]
				for j := range out {
					out[j] += a * row[j]
				}
			}
		}
		core = math.Min(core, ms(time.Since(t0)))
	}
	for rep := 0; rep < 2; rep++ {
		t0 := time.Now()
		for i, v := range yard.mem {
			yard.mem[i] = v*0.5 + 1
		}
		mem = math.Min(mem, ms(time.Since(t0)))
	}
	return core, mem
}
