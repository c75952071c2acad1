package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// End-to-end metric names, as BENCHMARK.json lists them. fail_ratio and
// host_slowdown are reported beside them but are not in that list: the first
// is always 0 and travels in the result line's attempted and failed counts.
const (
	mSetup    = "setup_s"
	mOps      = "ops_per_s"
	mP50      = "op_p50_ms"
	mP90      = "op_p90_ms"
	mCPU      = "cpu_ms_per_op"
	mAlloc    = "alloc_mb_per_op"
	mFailures = "fail_ratio"
	// mSlowdown is the median yardstick reading of the run, reported beside
	// the metrics so a reader can see what the correction did.
	mSlowdown = "host_slowdown"
)

const (
	// maxExtraWindows bounds how long a run keeps measuring to reach its
	// scale's minOps.
	maxExtraWindows = 6
	// jobTimeout bounds one serve_mixed job, submit to status.
	jobTimeout = 30 * time.Second
)

// usage is the process's cumulative CPU time and heap allocation.
type usage struct {
	cpu   time.Duration
	alloc uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
	}
}

// samples accumulates the timed ops of one workload, possibly over several
// windows (-workload all interleaves two passes). Everything is kept as
// measured; slow is the host slowdown (see yardstick.go) to divide a time by.
type samples struct {
	attempted, failed int
	failures          []string // first few failure messages
	ops               []opSample
	// slices holds one entry per op for the one-client workloads and one per
	// second of the window for serve_mixed.
	slices []sliceSample
	// slowdown holds every yardstick reading taken during the windows.
	slowdown []float64
}

// opSample is one verified op's client-observed latency.
type opSample struct {
	lat  time.Duration
	slow float64
}

// sliceSample is a stretch of busy time in which n ops completed.
type sliceSample struct {
	busy, cpu time.Duration
	alloc     uint64
	n         int
	slow      float64
}

func (s *samples) ok() int { return s.attempted - s.failed }

func (s *samples) fail(err error) {
	s.failed++
	if len(s.failures) < 5 {
		s.failures = append(s.failures, err.Error())
	}
}

// latMs returns the latency samples in ms, as measured or corrected.
func (s *samples) latMs(corrected bool) []float64 {
	out := make([]float64, len(s.ops))
	for i, o := range s.ops {
		out[i] = ms(o.lat)
		if corrected {
			out[i] /= o.slow
		}
	}
	return out
}

// workload is one named set of inputs the benchmark runs.
type workload interface {
	// setup builds everything from the seed: inputs, oracle results, the
	// warm-up ops and cache fill. It may be called again after teardown.
	setup() error
	// measure runs one timed window of about d, adding to acc. With a
	// tracer, ops go step by step through the layers' public entry points
	// under spans.
	measure(d time.Duration, tr *tracer, acc *samples)
	// teardown stops what setup started and removes its temp files.
	teardown()
}

// batchOps is the shape the three one-client closed-loop workloads share:
// op N+1 starts when op N returned and was checked.
type batchOps interface {
	// op runs timed op i and returns what verify needs.
	op(i int, root sp) (any, error)
	// verify checks op i's result against the oracle, outside the timing.
	verify(i int, result any) error
}

// runBatchWindow is the closed loop with one client: it starts ops for d
// (at least one), numbering them from firstOp, and returns the next unused
// number. CPU and allocation are read around each op, so verification never
// counts; the yardstick runs between ops, and each op gets its slowdown once
// the window has ended and the readings after it are in.
func runBatchWindow(w batchOps, d time.Duration, tr *tracer, firstOp int, acc *samples) int {
	type timedOp struct {
		start, end time.Time
		cpu        time.Duration
		alloc      uint64
	}
	var ops []timedOp
	runtime.GC()
	start := time.Now()
	acc.slowdown = append(acc.slowdown, hostSlowdown())
	i := firstOp
	for ; i == firstOp || time.Since(start) < d; i++ {
		before := readUsage()
		root := tr.root(i, "root")
		t0 := time.Now()
		res, err := w.op(i, root)
		t1 := time.Now()
		root.end()
		after := readUsage()
		acc.slowdown = append(acc.slowdown, hostSlowdown())
		acc.attempted++
		if err == nil {
			err = w.verify(i, res)
		}
		if err != nil {
			acc.fail(fmt.Errorf("op %d: %w", i, err))
			continue
		}
		ops = append(ops, timedOp{t0, t1, after.cpu - before.cpu, after.alloc - before.alloc})
	}
	for _, o := range ops {
		lat, slow := o.end.Sub(o.start), slowdownOver(o.start, o.end)
		acc.ops = append(acc.ops, opSample{lat, slow})
		acc.slices = append(acc.slices, sliceSample{busy: lat, cpu: o.cpu, alloc: o.alloc, n: 1, slow: slow})
	}
	return i
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// setupSample is one set-up's duration in seconds and the host slowdown
// while it ran.
type setupSample struct{ sec, slow float64 }

// endToEnd turns a workload's set-ups and samples into the end-to-end
// metrics. The time-based ones are corrected for host speed and carry the
// reading as measured beside the value.
func endToEnd(setups []setupSample, acc *samples, minOps int) (map[string]metric, error) {
	n := acc.ok()
	if n < minOps {
		return nil, fmt.Errorf("%d verified ops (%d failed: %s): refusing to report ops_per_s on fewer than %d",
			n, acc.failed, strings.Join(acc.failures, "; "), minOps)
	}
	var setupSec, setupRaw []float64
	for _, s := range setups {
		setupSec, setupRaw = append(setupSec, s.sec/s.slow), append(setupRaw, s.sec)
	}
	// Totals and per-slice readings, corrected (c) and as measured.
	var busy, busyC, cpu, cpuC float64 // seconds
	var alloc uint64
	var rate, cpuMs, allocMB []float64
	for _, sl := range acc.slices {
		b, c := sl.busy.Seconds(), sl.cpu.Seconds()
		busy, busyC, cpu, cpuC, alloc = busy+b, busyC+b/sl.slow, cpu+c, cpuC+c/sl.slow, alloc+sl.alloc
		if sl.n > 0 {
			k := float64(sl.n)
			rate = append(rate, k*sl.slow/b)
			cpuMs = append(cpuMs, 1e3*c/sl.slow/k)
			allocMB = append(allocMB, float64(sl.alloc)/1e6/k)
		}
	}
	lat, latRaw := acc.latMs(true), acc.latMs(false)
	quartiles := func(m metric, xs []float64) metric {
		m.Q1, m.Q3, m.N = percentile(xs, 0.25), percentile(xs, 0.75), len(xs)
		return m
	}
	k := float64(n)
	return map[string]metric{
		mSetup:    quartiles(metric{Value: median(setupSec), Raw: median(setupRaw), Unit: "s"}, setupSec),
		mOps:      quartiles(metric{Value: k / busyC, Raw: k / busy, Unit: "1/s"}, rate),
		mP50:      quartiles(metric{Value: median(lat), Raw: median(latRaw), Unit: "ms"}, lat),
		mP90:      {Value: percentile(lat, 0.90), Raw: percentile(latRaw, 0.90), Unit: "ms", N: len(lat)},
		mCPU:      quartiles(metric{Value: 1e3 * cpuC / k, Raw: 1e3 * cpu / k, Unit: "ms"}, cpuMs),
		mAlloc:    quartiles(metric{Value: float64(alloc) / 1e6 / k, Unit: "MB"}, allocMB),
		mFailures: single(float64(acc.failed)/float64(acc.attempted), "ratio"),
		mSlowdown: medianOf(acc.slowdown, "ratio"),
	}, nil
}

// hostInfo identifies the machine a ledger file was measured on.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
}

func readHost() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}
