package linalg

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// The parallel driver's contract (parallel.go) is bit-identity with the
// sequential blocked driver at every worker count: cell ownership keeps C
// writes disjoint and the per-cell pc loop preserves each element's
// ascending-k accumulation sequence. These tests run the comparison
// across 1/2/4/8 workers — including under -race, which is what catches
// a shared scratch — for all three transpose modes, with nonzero
// accumulators, fringe shapes, and the epilogue-fused path.

var parallelWorkerCounts = []int{1, 2, 4, 8}

// TestParallelGemmBitIdentical compares gemmBlockedParallel against
// gemmBlockedSeq over random shapes and shrunken block configurations
// that force many (jc, ic) cells per call, for every transpose mode, and
// both against the built-in blocking: the block shape is a speed choice
// only.
func TestParallelGemmBitIdentical(t *testing.T) {
	forEachKernel(t, testParallelGemmBitIdentical)
}

func testParallelGemmBitIdentical(t *testing.T, kern *microKern) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		m, k, n := 1+rng.Intn(60), 1+rng.Intn(60), 1+rng.Intn(60)
		cf := kernConf(kern, 1+rng.Intn(3), 1+rng.Intn(16), 1+rng.Intn(5))
		a, b := randTile(rng, m, k), randTile(rng, k, n)
		at, bt := transpose(a), transpose(b)
		c0 := randTile(rng, m, n)

		for _, mode := range []struct {
			name   string
			la, lb *Tile
			ta, tb bool
		}{
			{"gemm", a, b, false, false},
			{"gemmTA", at, b, true, false},
			{"gemmTB", a, bt, false, true},
		} {
			want := c0.clone()
			gemmBlockedSeq(cf, want, mode.la, mode.lb, mode.ta, mode.tb, nil)
			// Every kernel's sequential result is also the scalar
			// kernel's: the two are interchangeable bit for bit.
			scalar := c0.clone()
			gemmBlockedSeq(kernConf(&kernScalar, 2, cf.kc, 3), scalar, mode.la, mode.lb, mode.ta, mode.tb, nil)
			assertExact(t, want, scalar, fmt.Sprintf("trial %d %s vs scalar kernel", trial, mode.name))
			builtin := c0.clone()
			gemmBlockedSeq(prodConf(kern), builtin, mode.la, mode.lb, mode.ta, mode.tb, nil)
			assertExact(t, want, builtin, fmt.Sprintf("trial %d %s vs built-in blocking", trial, mode.name))
			for _, w := range parallelWorkerCounts {
				got := c0.clone()
				gemmBlockedParallel(cf, got, mode.la, mode.lb, mode.ta, mode.tb, nil, w)
				assertExact(t, got, want, fmt.Sprintf("trial %d %s w=%d", trial, mode.name, w))
			}
		}
	}
}

// TestParallelGemmHookedBitIdentical covers the epilogue-fused path:
// parallel workers apply the epilogue per finished cell, concurrently on
// disjoint panels, and the result must still match the sequential driver
// bit-for-bit — with every C element visited by the epilogue exactly
// once.
func TestParallelGemmHookedBitIdentical(t *testing.T) {
	forEachKernel(t, testParallelGemmHookedBitIdentical)
}

func testParallelGemmHookedBitIdentical(t *testing.T, kern *microKern) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(50), 1+rng.Intn(50), 1+rng.Intn(50)
		cf := kernConf(kern, 1+rng.Intn(3), 1+rng.Intn(12), 1+rng.Intn(4))
		a, b := randTile(rng, m, k), randTile(rng, k, n)
		c0 := randTile(rng, m, n)

		epiFor := func(c *Tile, visits []int32) EpilogueFn {
			return func(i0, j0, rows, cols int) {
				for i := i0; i < i0+rows; i++ {
					for j := j0; j < j0+cols; j++ {
						c.Data[i*c.Cols+j] = 2*c.Data[i*c.Cols+j] + 1
						atomic.AddInt32(&visits[i*c.Cols+j], 1)
					}
				}
			}
		}

		want := c0.clone()
		wantVisits := make([]int32, m*n)
		gemmBlockedSeq(cf, want, a, b, false, false, epiFor(want, wantVisits))
		for i, v := range wantVisits {
			if v != 1 {
				t.Fatalf("trial %d: sequential epilogue visited element %d %d times", trial, i, v)
			}
		}
		for _, w := range parallelWorkerCounts {
			got := c0.clone()
			visits := make([]int32, m*n)
			gemmBlockedParallel(cf, got, a, b, false, false, epiFor(got, visits), w)
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("trial %d w=%d: parallel epilogue visited element %d %d times", trial, w, i, v)
				}
			}
			assertExact(t, got, want, fmt.Sprintf("trial %d hooked w=%d", trial, w))
		}
	}
}

// TestPublicKernelsUnderParallelism drives the public dispatch with the
// process-wide knob set, at a size above both the blocked and the
// parallel cutoffs, and checks bit-identity against the naive references
// — the end-to-end guarantee the engines rely on.
func TestPublicKernelsUnderParallelism(t *testing.T) {
	forEachActiveKernel(t, testPublicKernelsUnderParallelism)
}

func testPublicKernelsUnderParallelism(t *testing.T, _ *microKern) {
	rng := rand.New(rand.NewSource(23))
	n := 260 // 2·260³ ≈ 35M flops: above gemmParallelMinFlops
	a, b := randTile(rng, n, n), randTile(rng, n, n)
	for _, w := range parallelWorkerCounts {
		prev := SetParallelism(w)
		if gemmWorkers(defaultBlockConf, n, n, n) > w {
			t.Fatalf("gemmWorkers exceeds the configured bound %d", w)
		}
		got, want := NewTile(n, n), NewTile(n, n)
		Gemm(got, a, b)
		refGemm(want, a, b)
		assertExact(t, got, want, fmt.Sprintf("public gemm w=%d", w))

		gotTB, wantTB := randTile(rng, n, n), NewTile(n, n)
		wantTB.Data = append(wantTB.Data[:0], gotTB.Data...)
		GemmTB(gotTB, a, b)
		refGemmTB(wantTB, a, b)
		assertExact(t, gotTB, wantTB, fmt.Sprintf("public gemmTB w=%d", w))

		gotTA, wantTA := NewTile(n, n), NewTile(n, n)
		GemmTA(gotTA, a, b)
		refGemmTA(wantTA, a, b)
		assertExact(t, gotTA, wantTA, fmt.Sprintf("public gemmTA w=%d", w))
		SetParallelism(prev)
	}
}

// TestSetParallelism pins the knob's semantics: 0 restores GOMAXPROCS,
// the previous value is returned, and gemmWorkers gates on both the
// flop threshold and the cell count.
func TestSetParallelism(t *testing.T) {
	prev := SetParallelism(0)
	defer SetParallelism(prev)
	if got := Parallelism(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("default parallelism = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if old := SetParallelism(3); old != runtime.GOMAXPROCS(0) {
		t.Fatalf("SetParallelism returned %d, want previous %d", old, runtime.GOMAXPROCS(0))
	}
	if got := Parallelism(); got != 3 {
		t.Fatalf("Parallelism = %d after SetParallelism(3)", got)
	}
	// Small products never fan out, whatever the knob says.
	if w := gemmWorkers(defaultBlockConf, 64, 64, 64); w != 1 {
		t.Fatalf("gemmWorkers(64³) = %d, want 1 (below the fan-out gate)", w)
	}
	// The cell grid caps useful workers: a single-cell product runs alone.
	SetParallelism(8)
	if w := gemmWorkers(defaultBlockConf, 512, 512, 512); w != 8 {
		t.Fatalf("gemmWorkers(big grid) = %d, want 8", w)
	}
	if w := gemmWorkers(blockConf{mc: 4096, kc: 256, nc: 4096, kern: &kernScalar}, 512, 512, 512); w != 1 {
		t.Fatalf("gemmWorkers(one cell) = %d, want 1", w)
	}
}

// forEachActiveKernel is forEachKernel with each kernel also installed as
// the process's selected one (what init would have chosen on another
// host), so the exported surface — the public kernels, KernelName — is
// exercised under each. Not parallel-safe, like the setters
// it sits beside.
func forEachActiveKernel(t *testing.T, body func(t *testing.T, kern *microKern)) {
	t.Helper()
	forEachKernel(t, func(t *testing.T, kern *microKern) {
		prev := defaultBlockConf.kern
		defaultBlockConf.kern = kern
		defer func() { defaultBlockConf.kern = prev }()
		body(t, kern)
	})
}

// TestBlockShapeIsSpeedOnly: a non-default block shape — one register
// tile, a ragged one that divides none of the product's axes, one on the
// BlockQuantum grid — gives the default blocking's result bit-for-bit at
// 1, 2 and 4 workers, for every transpose mode, accumulating into a
// nonzero C.
func TestBlockShapeIsSpeedOnly(t *testing.T) {
	forEachActiveKernel(t, func(t *testing.T, kern *microKern) {
		for _, shape := range []struct {
			name string
			cf   blockConf
		}{
			{"one_tile", kernConf(kern, 1, 1, 1)},
			{"ragged", kernConf(kern, 3, 7, 5)},
			{"quantum_grid", blockConf{mc: BlockQuantum, kc: 13, nc: 2 * BlockQuantum, kern: kern}},
		} {
			t.Run(shape.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(24))
				a, b := randTile(rng, 45, 29), randTile(rng, 29, 37)
				c0 := randTile(rng, 45, 37)
				gemmModes(a, b, func(name string, la, lb *Tile, ta, tb bool, _ func(c, a, b *Tile)) {
					want := c0.clone()
					gemmBlockedSeq(defaultBlockConf, want, la, lb, ta, tb, nil)
					for _, w := range []int{1, 2, 4} {
						got := c0.clone()
						gemmBlockedParallel(shape.cf, got, la, lb, ta, tb, nil, w)
						assertExact(t, got, want, fmt.Sprintf("%s mc=%d kc=%d nc=%d w=%d", name, shape.cf.mc, shape.cf.kc, shape.cf.nc, w))
					}
				})
			})
		}
	})
}

// TestParallelGemmScratchPooled asserts the per-worker scratch keeps the
// parallel path's allocations bounded by fan-out bookkeeping alone
// (goroutines + waitgroup), independent of the product size: packing
// buffers come from the pool, never fresh.
func TestParallelGemmScratchPooled(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode drops sync.Pool items at random; alloc count is not stable")
	}
	forEachKernel(t, testParallelGemmScratchPooled)
}

func testParallelGemmScratchPooled(t *testing.T, kern *microKern) {
	cf := prodConf(kern)
	rng := rand.New(rand.NewSource(26))
	const workers = 4
	measure := func(n int) float64 {
		a, b := randTile(rng, n, n), randTile(rng, n, n)
		c := NewTile(n, n)
		gemmBlockedParallel(cf, c, a, b, false, false, nil, workers) // warm the pool
		return testing.AllocsPerRun(10, func() {
			gemmBlockedParallel(cf, c, a, b, false, false, nil, workers)
		})
	}
	small, large := measure(96), measure(192)
	// Spawn bookkeeping is a handful of objects per worker; 4 workers
	// must stay under ~6 each, and the count must not grow with size.
	if small > 6*workers || large > 6*workers {
		t.Fatalf("parallel gemm allocates %.1f/%.1f objects per call, want fan-out bookkeeping only", small, large)
	}
	if large > small+workers {
		t.Fatalf("parallel gemm allocations grow with size: %.1f at 96 vs %.1f at 192 (scratch not pooled?)", small, large)
	}
}

// TestBudgetTokens pins the token budget: tryAcquire takes only what is
// idle and never waits, AcquireToken waits for a release or a larger
// budget, and ForEach adds one goroutine per idle token up to its item
// count and runs every item once.
func TestBudgetTokens(t *testing.T) {
	defer SetParallelism(SetParallelism(3))
	AcquireToken()
	if got := tryAcquire(5); got != 2 {
		t.Fatalf("tryAcquire(5) took %d tokens with 2 of 3 idle", got)
	}
	if got := tryAcquire(1); got != 0 {
		t.Fatalf("tryAcquire took %d tokens from a spent budget", got)
	}
	acquired := make(chan struct{})
	go func() {
		AcquireToken()
		AcquireToken()
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("AcquireToken did not wait on a spent budget")
	case <-time.After(20 * time.Millisecond):
	}
	releaseTokens(1)  // wakes the first AcquireToken
	SetParallelism(4) // and a larger budget the second
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("AcquireToken still waiting after a release and a larger budget")
	}
	releaseTokens(4)

	for _, tc := range []struct{ elsewhere, items, want int32 }{{0, 8, 4}, {0, 2, 2}, {2, 8, 2}, {3, 8, 1}, {0, 1, 1}} {
		tryAcquire(int(tc.elsewhere))
		var copies atomic.Int32
		ran := make([]atomic.Int32, tc.items)
		ForEach(int(tc.items), func() func(int) {
			copies.Add(1)
			return func(i int) { ran[i].Add(1) }
		})
		if copies.Load() != tc.want {
			t.Fatalf("ForEach(%d) with %d of 4 tokens held elsewhere ran on %d goroutines, want %d", tc.items, tc.elsewhere, copies.Load(), tc.want)
		}
		for i := range ran {
			if n := ran[i].Load(); n != 1 {
				t.Fatalf("ForEach(%d) ran item %d %d times", tc.items, i, n)
			}
		}
		releaseTokens(int(tc.elsewhere))
	}
	if got := tryAcquire(9); got != 4 {
		t.Fatalf("%d of 4 tokens idle after every release", got)
	}
	releaseTokens(4)
}
