package linalg

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Parallel blocked-GEMM driver.
//
// One large tile product is partitioned over the (jc, ic) macro-panel
// grid of the blocked driver: every cell is one nc-wide, mc-tall panel of
// C together with its full pc loop. A worker that owns a cell runs that
// cell's k blocks in ascending order against its own packing scratch, so
//
//   - writes stay disjoint: each C element belongs to exactly one cell;
//   - the accumulation sequence per element — C loaded first, k terms
//     ascending — is exactly the sequential driver's, so the result is
//     bit-identical to gemmBlockedSeq at every worker count;
//   - no synchronization exists beyond one atomic cell counter and the
//     final WaitGroup, and no scratch is shared between goroutines (the
//     per-call sync.Pool scratch of the sequential driver would be a
//     data race the moment two workers packed panels into it).
//
// The cost of cell ownership is re-packing: a B panel is packed once per
// cell instead of once per jc column (an extra kb·nb copy against the
// cell's 2·mb·nb·kb flops, ≤ 1/(2·mc) ≈ 1% at default blocking), and
// likewise an A panel once per cell instead of once per ic row
// (≤ 1/(2·nc) ≈ 0.1%). That waste buys barrier-free workers: no phase
// locks, no packed-panel hand-off, work stealing by atomic increment.

// parallelism holds the configured size of the compute budget: 0 means
// "use GOMAXPROCS", n >= 1 means n.
var parallelism atomic.Int32

// The process has one compute budget of Parallelism() tokens, and every
// goroutine doing tile math holds one. A goroutine that holds none waits
// for its token (AcquireToken: a task of either compute backend; ForEach:
// an ingest or fetch loop); a goroutine that holds one widens only by
// taking tokens that are idle at that moment, never waiting (ForEach, the
// parallel GEMM tier). Holders therefore never block on the budget, so it
// cannot deadlock, and pool width times kernel width cannot exceed the
// host: a phase of many tasks runs them side by side on the sequential
// driver, a phase of one gets every core for its product.
var budget struct {
	mu    sync.Mutex
	freed sync.Cond // woken when tokens come back or the size changes
	held  int
}

func init() { budget.freed.L = &budget.mu }

// SetParallelism sets the size of the compute budget and returns the
// previous one. n <= 0 restores the default (GOMAXPROCS at the time of
// use). The budget is process-wide — it is a property of the host, not of
// one engine — so a process sets it once at start (the CLIs' -kernel-par
// flags) and engines never touch it. Results are
// bit-identical at every setting; only wall-clock changes.
func SetParallelism(n int) int {
	prev := int(parallelism.Swap(int32(max(n, 0))))
	// Under the lock, so the wake-up cannot fall between a waiter's check
	// of the old size and its Wait.
	budget.mu.Lock()
	budget.freed.Broadcast()
	budget.mu.Unlock()
	if prev == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return prev
}

// Parallelism reports the size of the compute budget (GOMAXPROCS when
// unset).
func Parallelism() int {
	if n := int(parallelism.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// AcquireToken takes one token of the budget for the calling goroutine,
// waiting until one is free. The caller must hold none already, and gives
// it back with ReleaseToken.
func AcquireToken() {
	budget.mu.Lock()
	for budget.held >= Parallelism() {
		budget.freed.Wait()
	}
	budget.held++
	budget.mu.Unlock()
}

// ReleaseToken returns the token taken by AcquireToken or TryAcquireToken.
func ReleaseToken() { releaseTokens(1) }

// TryAcquireToken takes one token if one is idle right now and reports
// whether it did; it never waits. A goroutine widens a search onto the
// budget this way (opt's calibration helpers), so a busy host gets none.
func TryAcquireToken() bool { return tryAcquire(1) == 1 }

// tryAcquire takes up to n tokens that are idle right now and reports how
// many it got; it never waits.
func tryAcquire(n int) int {
	budget.mu.Lock()
	defer budget.mu.Unlock()
	n = max(min(n, Parallelism()-budget.held), 0)
	budget.held += n
	return n
}

func releaseTokens(n int) {
	budget.mu.Lock()
	budget.held -= n
	budget.mu.Unlock()
	budget.freed.Broadcast()
}

// ForEach calls work(i) for every i in [0, n) on the calling goroutine,
// which must hold no token and waits for one, and on one more goroutine per
// token idle right then. newWork is called once per goroutine, so what it
// allocates is that goroutine's own; the goroutines draw the items off one
// counter, so work must not depend on which of them runs an item.
func ForEach(n int, newWork func() (work func(i int))) {
	AcquireToken()
	extra := tryAcquire(n - 1)
	var next atomic.Int64
	runOn(1+extra, func() {
		work := newWork()
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			work(i)
		}
	})
	releaseTokens(1 + extra)
}

// runOn runs work on the calling goroutine and on n-1 new ones.
func runOn(n int, work func()) {
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// mathHook is a seam for the budget's tests: when set, a goroutine calls it
// with +1 as it starts driving the blocked kernel and with -1 as it stops.
var mathHook func(delta int)

// gemmParallelMinFlops gates fan-out: below ~2·256³ multiply-adds the
// goroutine spawn and duplicated packing cost more than the idle cores
// recover. The threshold is perf-only — results are identical on both
// sides of it.
const gemmParallelMinFlops = 1 << 25

// gemmWorkers decides how many workers an (m×k)·(k×n) product could use
// under the blocking cf: the budget's size, capped by the number of
// macro-panel cells (extra workers would idle) and by the work-size gate.
// How many it gets is up to the budget (gemmBlocked).
func gemmWorkers(cf blockConf, m, k, n int) int {
	w := Parallelism()
	if w <= 1 {
		return 1
	}
	if 2*int64(m)*int64(k)*int64(n) < gemmParallelMinFlops {
		return 1
	}
	cells := ceilDiv(m, cf.mc) * ceilDiv(n, cf.nc)
	if w > cells {
		w = cells
	}
	return w
}

// gemmBlockedParallel runs the blocked driver with the (jc, ic) cell grid
// partitioned across `workers` goroutines, the calling one included. Each
// worker draws cells from an atomic counter, packs into its own pooled
// scratch, and — when epi is non-nil — applies the epilogue to each
// finished cell while it is still cache-resident. Epilogues therefore run
// concurrently on disjoint panels; the EpilogueFn contract requires nothing
// more than per-element purity, which the compiled tile-program epilogues
// satisfy (they write only the panel region they are handed).
func gemmBlockedParallel(cf blockConf, c, a, b *Tile, ta, tb bool, epi EpilogueFn, workers int) {
	m, n := c.Rows, c.Cols
	k := a.Cols
	if ta {
		k = a.Rows
	}
	jCells := ceilDiv(n, cf.nc)
	iCells := ceilDiv(m, cf.mc)
	total := jCells * iCells
	if workers > total {
		workers = total
	}

	var next atomic.Int64
	runOn(workers, func() {
		if mathHook != nil {
			mathHook(1)
			defer mathHook(-1)
		}
		sc := gemmPool.Get().(*gemmScratch)
		defer gemmPool.Put(sc)
		sc.ensure(cf.mc*cf.kc, cf.kc*cf.nc)
		for {
			cell := int(next.Add(1)) - 1
			if cell >= total {
				return
			}
			// jc-major order: consecutive cells share a B column
			// panel, keeping the packed-B reads warm across a
			// worker's run of cells.
			jc := (cell / iCells) * cf.nc
			ic := (cell % iCells) * cf.mc
			nb := minInt(cf.nc, n-jc)
			mb := minInt(cf.mc, m-ic)
			// The pc loop stays sequential within the cell so every
			// C element accumulates its k terms in ascending order —
			// the bit-exactness contract of block.go.
			for pc := 0; pc < k; pc += cf.kc {
				kb := minInt(cf.kc, k-pc)
				packB(sc.b, cf.kern.nr, b, tb, pc, kb, jc, nb)
				packA(sc.a, cf.kern.mr, a, ta, ic, mb, pc, kb)
				macroKernel(cf.kern, kb, sc.a, sc.b, c, ic, mb, jc, nb)
			}
			if epi != nil {
				epi(ic, jc, mb, nb)
			}
		}
	})
}

// KernelName names the micro-kernel this process selected at init
// ("avx2-4x8" or "scalar-4x2"). Results are bit-identical under either;
// the name only labels measurements, which are not.
func KernelName() string { return defaultBlockConf.kern.name }
