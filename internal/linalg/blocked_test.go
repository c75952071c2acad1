package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// The blocked driver's contract (block.go) is bit-exact agreement with
// the naive references on finite data for Gemm, GemmTA and GemmTB alike:
// all three references fold their k terms into the loaded C element in
// ascending order, exactly as the micro-kernel does, from any
// accumulator. These tests hold every dispatch path to that contract
// across edge shapes, fringe remainders, cutoff-straddling sizes and
// shrunken block configurations.

// zeroableTile builds a tile that may have zero rows or columns, which
// NewTile rejects but the kernels must tolerate (a planner never emits
// them, yet the driver's loop bounds make them safe by construction).
func zeroableTile(rng *rand.Rand, rows, cols int) *Tile {
	t := &Tile{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

// forEachKernel runs body as one subtest per micro-kernel this process
// can execute, so every differential below holds the AVX2 and the scalar
// kernel to the same references in one binary. Where the AVX2 kernel is
// missing (non-amd64, -tags purego, or a CPU without it) its arm is
// skipped and the reason logged.
func forEachKernel(t *testing.T, body func(t *testing.T, kern *microKern)) {
	t.Helper()
	for _, kern := range microKernels {
		t.Run(kern.name, func(t *testing.T) { body(t, kern) })
	}
	if len(microKernels) == 1 {
		t.Logf("AVX2 arm skipped: this build or CPU has only the %s kernel", microKernels[0].name)
	}
}

// kernConf builds a block configuration for kern with mc and nc given in
// register tiles, so shrunken test shapes stay legal under either kernel.
func kernConf(kern *microKern, mcTiles, kc, ncTiles int) blockConf {
	return blockConf{mc: mcTiles * kern.mr, kc: kc, nc: ncTiles * kern.nr, kern: kern}
}

// prodConf is production blocking over kern.
func prodConf(kern *microKern) blockConf {
	cf := defaultBlockConf
	cf.kern = kern
	return cf
}

func assertExact(t *testing.T, got, want *Tile, label string) {
	t.Helper()
	if !got.Equal(want) {
		maxd := 0.0
		for i := range got.Data {
			if d := math.Abs(got.Data[i] - want.Data[i]); d > maxd {
				maxd = d
			}
		}
		t.Fatalf("%s: blocked kernel diverges from reference (maxdiff %g)", label, maxd)
	}
}

// TestBlockedGemmEdgeShapes drives the blocked driver directly (no size
// cutoff) over degenerate and fringe shapes: empty axes, single elements,
// shapes straddling the mr/nr micro-tile, and remainders in every
// combination, under a block config small enough that all of them cross
// block boundaries.
func TestBlockedGemmEdgeShapes(t *testing.T) {
	forEachKernel(t, testBlockedGemmEdgeShapes)
}

func testBlockedGemmEdgeShapes(t *testing.T, kern *microKern) {
	rng := rand.New(rand.NewSource(11))
	cf := kernConf(kern, 2, 4, 3)
	mr, nr := kern.mr, kern.nr
	shapes := []struct{ m, k, n int }{
		{0, 3, 4}, {3, 0, 4}, {3, 4, 0}, {0, 0, 0},
		{1, 1, 1}, {1, 7, 1}, {2, 1, 2},
		{mr, 5, nr}, {mr - 1, 5, nr - 1}, {mr + 1, 5, nr + 1},
		{5, 3, 7}, {8, 4, 6}, {9, 5, 7}, {13, 11, 3},
		{17, 2, 19}, {16, 16, 16}, {33, 9, 31},
		{2*mr + 1, 6, 3*nr + 1}, {3 * mr, 9, 4*nr - 1},
	}
	for _, s := range shapes {
		a := zeroableTile(rng, s.m, s.k)
		b := zeroableTile(rng, s.k, s.n)
		got := zeroableTile(rng, s.m, s.n)
		want := got.clone()
		gemmBlocked(cf, got, a, b, false, false, nil)
		refGemm(want, a, b)
		assertExact(t, got, want, "gemm "+got.String())

		at := zeroableTile(rng, s.k, s.m)
		gotTA := zeroableTile(rng, s.m, s.n)
		wantTA := gotTA.clone()
		gemmBlocked(cf, gotTA, at, b, true, false, nil)
		refGemmTA(wantTA, at, b)
		assertExact(t, gotTA, wantTA, "gemmTA")

		bt := zeroableTile(rng, s.n, s.k)
		gotTB := zeroableTile(rng, s.m, s.n)
		wantTB := gotTB.clone()
		gemmBlocked(cf, gotTB, a, bt, false, true, nil)
		refGemmTB(wantTB, a, bt)
		assertExact(t, gotTB, wantTB, "gemmTB")
	}
}

// TestBlockedGemmRandomized sweeps random shapes and random (deliberately
// tiny) block configurations so that multi-block loops and every fringe
// case of the packers and micro-kernel are exercised at fast sizes, with
// random nonzero accumulators.
func TestBlockedGemmRandomized(t *testing.T) {
	forEachKernel(t, testBlockedGemmRandomized)
}

func testBlockedGemmRandomized(t *testing.T, kern *microKern) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		m, k, n := 1+rng.Intn(70), 1+rng.Intn(70), 1+rng.Intn(70)
		cf := kernConf(kern, 1+rng.Intn(4), 1+rng.Intn(24), 1+rng.Intn(8))
		a, b := randTile(rng, m, k), randTile(rng, k, n)

		got := randTile(rng, m, n)
		want := got.clone()
		gemmBlocked(cf, got, a, b, false, false, nil)
		refGemm(want, a, b)
		assertExact(t, got, want, "gemm")

		at := transpose(a)
		gotTA := randTile(rng, m, n)
		wantTA := gotTA.clone()
		gemmBlocked(cf, gotTA, at, b, true, false, nil)
		refGemmTA(wantTA, at, b)
		assertExact(t, gotTA, wantTA, "gemmTA")

		bt := transpose(b)
		gotTB := randTile(rng, m, n)
		wantTB := gotTB.clone()
		gemmBlocked(cf, gotTB, a, bt, false, true, nil)
		refGemmTB(wantTB, a, bt)
		// Nonzero accumulator included: since the refGemmTB accumulation
		// fix, the TB branch is held to the same bit equality as the
		// other two.
		assertExact(t, gotTB, wantTB, "gemmTB")
	}
}

// TestGemmDispatchStraddlesCutoff verifies the public kernels around the
// blocked-dispatch threshold: the exact sizes just below it (naive path)
// and just above it (blocked path) must agree with the reference either
// way, so a misrouted size could only ever cost speed, not correctness.
func TestGemmDispatchStraddlesCutoff(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, s := range []int{60, 63, 64, 65, 72} {
		below := useBlocked(s, s, s)
		if s <= 63 && below {
			t.Fatalf("useBlocked(%d³) = true, expected naive fallback", s)
		}
		if s >= 64 && !below {
			t.Fatalf("useBlocked(%d³) = false, expected blocked dispatch", s)
		}
		a, b := randTile(rng, s, s), randTile(rng, s, s)
		got, want := NewTile(s, s), NewTile(s, s)
		Gemm(got, a, b)
		refGemm(want, a, b)
		assertExact(t, got, want, "gemm dispatch")

		gotTB, wantTB := NewTile(s, s), NewTile(s, s)
		GemmTB(gotTB, a, b)
		refGemmTB(wantTB, a, b)
		assertExact(t, gotTB, wantTB, "gemmTB dispatch")

		gotTA, wantTA := NewTile(s, s), NewTile(s, s)
		GemmTA(gotTA, a, b)
		refGemmTA(wantTA, a, b)
		assertExact(t, gotTA, wantTA, "gemmTA dispatch")
	}
}

// TestGemmAccumulationOrderAcrossKBlocks pins the heart of the numerical
// contract: splitting k across many blocks must not change a single bit
// of the result, because the micro-kernel reloads C between blocks and
// continues the same ascending-k addition chain.
func TestGemmAccumulationOrderAcrossKBlocks(t *testing.T) {
	forEachKernel(t, testGemmAccumulationOrderAcrossKBlocks)
}

func testGemmAccumulationOrderAcrossKBlocks(t *testing.T, kern *microKern) {
	rng := rand.New(rand.NewSource(14))
	m, k, n := 12, 200, 10
	a, b := randTile(rng, m, k), randTile(rng, k, n)
	want := randTile(rng, m, n)
	one := want.clone()
	many := want.clone()
	refGemm(want, a, b)
	gemmBlocked(blockConf{mc: 64, kc: 512, nc: 64, kern: kern}, one, a, b, false, false, nil) // single k block
	gemmBlocked(kernConf(kern, 2, 3, 2), many, a, b, false, false, nil)                       // 67 k blocks
	assertExact(t, one, want, "single k block")
	assertExact(t, many, want, "many k blocks")
}

// TestMaskedGemmPackedMatchesRef drives the packed masked multiply
// directly against the reference walk: identical dot ordering means
// bit-identical values, on every pattern shape including empty rows,
// full rows and single columns.
func TestMaskedGemmPackedMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 60; trial++ {
		m, k, n := 1+rng.Intn(30), 1+rng.Intn(30), 1+rng.Intn(30)
		a, b := randTile(rng, m, k), randTile(rng, k, n)
		pat := NewTile(m, n)
		density := rng.Float64()
		for i := range pat.Data {
			if rng.Float64() < density {
				pat.Data[i] = 1
			}
		}
		mask := DenseToCSR(pat)
		got := maskedGemmPacked(mask, a, b)
		want := refMaskedGemm(mask, a, b)
		if len(got.Val) != len(want.Val) {
			t.Fatalf("trial %d: nnz %d vs %d", trial, len(got.Val), len(want.Val))
		}
		for i := range got.Val {
			if got.Val[i] != want.Val[i] {
				t.Fatalf("trial %d: masked value %d differs: %g vs %g",
					trial, i, got.Val[i], want.Val[i])
			}
		}
	}
}

// TestBlockedGemmSteadyStateAllocFree asserts the scratch pool does its
// job: after a warm-up call, repeated blocked multiplies of the same
// shape perform zero heap allocations.
func TestBlockedGemmSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode drops sync.Pool items at random; alloc count is not stable")
	}
	forEachKernel(t, testBlockedGemmSteadyStateAllocFree)
}

func testBlockedGemmSteadyStateAllocFree(t *testing.T, kern *microKern) {
	rng := rand.New(rand.NewSource(16))
	// 99×97: fringe tiles on both axes, so the padded stack tile is on
	// the measured path and must not escape to the heap.
	a, b := randTile(rng, 99, 96), randTile(rng, 96, 97)
	c := NewTile(99, 97)
	cf := prodConf(kern)
	gemmBlocked(cf, c, a, b, false, false, nil) // warm the pool
	allocs := testing.AllocsPerRun(20, func() {
		gemmBlocked(cf, c, a, b, false, false, nil)
	})
	if allocs != 0 {
		t.Fatalf("blocked gemm allocates %.1f objects/run in steady state, want 0", allocs)
	}
}
