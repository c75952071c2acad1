package linalg

import (
	"math/rand"
	"testing"
)

// The epilogue hook's contract (block.go, kernels.go): after GemmHooked
// returns, epi has been invoked over a set of disjoint regions that
// together cover every element of C exactly once, and each region was
// complete (all k accumulated) when its callback ran — so applying a
// scalar transform inside the hook is bit-identical to running the same
// transform as a separate pass after a plain Gemm.

// coverageEpi returns an EpilogueFn that counts visits per element of an
// rows x cols output.
func coverageEpi(counts []int, stride int) EpilogueFn {
	return func(i0, j0, rows, cols int) {
		for i := i0; i < i0+rows; i++ {
			for j := j0; j < j0+cols; j++ {
				counts[i*stride+j]++
			}
		}
	}
}

func assertFullCoverage(t *testing.T, counts []int, label string) {
	t.Helper()
	for i, n := range counts {
		if n != 1 {
			t.Fatalf("%s: element %d visited %d times, want exactly 1", label, i, n)
		}
	}
}

// TestGemmHookedCoverage: across both dispatch tiers (blocked and naive
// reference) and all three transpose modes, the hook visits every output
// element exactly once.
func TestGemmHookedCoverage(t *testing.T) {
	forEachActiveKernel(t, testGemmHookedCoverage)
}

func testGemmHookedCoverage(t *testing.T, _ *microKern) {
	rng := rand.New(rand.NewSource(7))
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 2}, {17, 9, 13},
		{64, 48, 96}, // above the blocked cutoff
		{130, 70, 96},
	}
	for _, s := range shapes {
		for _, mode := range []struct {
			name   string
			ta, tb bool
			ar, ac int
			br, bc int
		}{
			{"nn", false, false, s.m, s.k, s.k, s.n},
			{"tn", true, false, s.k, s.m, s.k, s.n},
			{"nt", false, true, s.m, s.k, s.n, s.k},
		} {
			a := zeroableTile(rng, mode.ar, mode.ac)
			b := zeroableTile(rng, mode.br, mode.bc)
			c := NewTile(s.m, s.n)
			counts := make([]int, s.m*s.n)
			GemmHooked(c, a, b, mode.ta, mode.tb, coverageEpi(counts, s.n))
			assertFullCoverage(t, counts, mode.name)
		}
	}
}

// TestGemmBlockedEpilogueCoverage drives the blocked driver directly with
// shrunken block factors, so the jc/pc/ic loops all iterate multiple
// times: the hook must fire once per jc panel, after that panel's final
// k rank has been accumulated — never per pc step.
func TestGemmBlockedEpilogueCoverage(t *testing.T) {
	forEachKernel(t, testGemmBlockedEpilogueCoverage)
}

func testGemmBlockedEpilogueCoverage(t *testing.T, kern *microKern) {
	rng := rand.New(rand.NewSource(8))
	cf := kernConf(kern, 1, 4, 2)
	for _, s := range []struct{ m, k, n int }{{9, 10, 11}, {4, 4, 4}, {13, 3, 5}, {9, 10, 37}} {
		a := zeroableTile(rng, s.m, s.k)
		b := zeroableTile(rng, s.k, s.n)
		c := NewTile(s.m, s.n)
		counts := make([]int, s.m*s.n)
		gemmBlocked(cf, c, a, b, false, false, coverageEpi(counts, s.n))
		assertFullCoverage(t, counts, "blocked")

		want := NewTile(s.m, s.n)
		refGemm(want, a, b)
		assertExact(t, c, want, "blocked with epilogue")
	}
	// Zero-dimension outputs still invoke the hook (over an empty region).
	calls := 0
	gemmBlocked(cf, &Tile{Rows: 0, Cols: 3, Data: nil},
		&Tile{Rows: 0, Cols: 2, Data: nil}, &Tile{Rows: 2, Cols: 3, Data: make([]float64, 6)},
		false, false, func(i0, j0, rows, cols int) { calls++ })
	if calls != 1 {
		t.Fatalf("zero-dim epilogue calls: %d, want 1", calls)
	}
}

// TestGemmHookedFusedMatchesPostPass: transforming inside the hook is
// bit-identical to a plain Gemm followed by the same transform as a
// separate pass — on both dispatch tiers.
func TestGemmHookedFusedMatchesPostPass(t *testing.T) {
	forEachActiveKernel(t, testGemmHookedFusedMatchesPostPass)
}

func testGemmHookedFusedMatchesPostPass(t *testing.T, _ *microKern) {
	rng := rand.New(rand.NewSource(9))
	xform := func(x float64) float64 { return 0.5*x + 1 }
	for _, s := range []struct{ m, k, n int }{{5, 7, 3}, {70, 64, 80}} {
		a := zeroableTile(rng, s.m, s.k)
		b := zeroableTile(rng, s.k, s.n)

		fused := NewTile(s.m, s.n)
		GemmHooked(fused, a, b, false, false, func(i0, j0, rows, cols int) {
			for i := i0; i < i0+rows; i++ {
				row := fused.Data[i*fused.Cols:]
				for j := j0; j < j0+cols; j++ {
					row[j] = xform(row[j])
				}
			}
		})

		post := NewTile(s.m, s.n)
		Gemm(post, a, b)
		for i, v := range post.Data {
			post.Data[i] = xform(v)
		}
		assertExact(t, fused, post, "fused epilogue")
	}
}

// TestGemmHookedNilMatchesGemm: a nil hook is exactly the plain kernels.
func TestGemmHookedNilMatchesGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := zeroableTile(rng, 33, 21)
	b := zeroableTile(rng, 21, 27)
	hooked := NewTile(33, 27)
	plain := NewTile(33, 27)
	GemmHooked(hooked, a, b, false, false, nil)
	Gemm(plain, a, b)
	assertExact(t, hooked, plain, "nil hook")
}
