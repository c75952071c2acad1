package linalg

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchTile(n int, seed int64) *Tile {
	rng := rand.New(rand.NewSource(seed))
	t := NewTile(n, n)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

// The Gemm/GemmTA/GemmTB benchmarks compare the naive reference loops
// against the cache-blocked driver under each micro-kernel, at the square
// sizes recorded in EXPERIMENTS.md. Compare paths with benchstat:
//
//	go test -run '^$' -bench 'Gemm.*/(naive|scalar|blocked)' -benchtime 10x -count 10 ./internal/linalg | tee bench.txt
//	benchstat bench.txt   # or diff two checkouts' bench.txt files
//
// Every arm calls a concrete kernel directly (not the public dispatch),
// so each path is measured even at sizes the cutoff would route
// elsewhere. "blocked" is the process's selected kernel (AVX2 where
// available) and "scalar" the portable 4×2 kernel; both pin the
// *sequential* driver (gemmBlockedSeq) so their 0 allocs/op CI guard and
// the comparisons stay independent of the host's core count. The
// parallel tier has its own sub-benchmarks (BenchmarkGemmParallel) with
// explicit worker counts.

// benchGemmArms times C += op(A)·op(B) for an (m×k)·(k×n) product through
// the reference and through the sequential blocked driver under the
// scalar and the selected kernel.
func benchGemmArms(b *testing.B, m, k, n int, ta, tb bool, naive func(c, a, x *Tile)) {
	rng := rand.New(rand.NewSource(1))
	a, x := randTile(rng, m, k), randTile(rng, k, n)
	if ta {
		a = transpose(a)
	}
	if tb {
		x = transpose(x)
	}
	c := NewTile(m, n)
	flops := GemmFlops(m, k, n)
	run := func(b *testing.B, kernel func(c, a, x *Tile)) {
		kernel(c, a, x) // warm scratch pool and caches
		b.ReportAllocs()
		b.SetBytes(flops) // MB/s column reads as MFLOP/s
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Zero()
			kernel(c, a, x)
		}
	}
	blocked := func(cf blockConf) func(c, a, x *Tile) {
		return func(c, a, x *Tile) { gemmBlockedSeq(cf, c, a, x, ta, tb, nil) }
	}
	b.Run("naive", func(b *testing.B) { run(b, naive) })
	b.Run("scalar", func(b *testing.B) { run(b, blocked(prodConf(&kernScalar))) })
	b.Run("blocked", func(b *testing.B) { run(b, blocked(defaultBlockConf)) })
}

func BenchmarkGemm(b *testing.B) {
	for _, n := range []int{128, 256, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchGemmArms(b, n, n, n, false, false, refGemm) })
	}
}

func BenchmarkGemmTA(b *testing.B) {
	for _, n := range []int{128, 256, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchGemmArms(b, n, n, n, true, false, refGemmTA) })
	}
}

// GemmTB is the satellite case: the reference computes a strided row dot
// per output element, re-streaming a full row of B for every column, so
// blocking pays off earliest here.
func BenchmarkGemmTB(b *testing.B) {
	for _, n := range []int{128, 256, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchGemmArms(b, n, n, n, false, true, refGemmTB) })
	}
}

// BenchmarkGemmSkinny sweeps the non-square products the materialized
// workloads issue — gnmf_sparse's r = 32 factors against 256-tiles, the
// narrow n ∈ [8, 32) band just above useBlocked's floor, and
// serve_mixed's 64-tiles — so where the blocked path beats the naive
// loops is a recorded measurement, per kernel, not an assumption.
func BenchmarkGemmSkinny(b *testing.B) {
	for _, s := range []struct{ m, k, n int }{
		{256, 256, 32}, {32, 256, 256}, {256, 32, 256},
		{256, 256, 8}, {256, 256, 16}, {256, 256, 24}, {64, 64, 64},
	} {
		b.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(b *testing.B) {
			benchGemmArms(b, s.m, s.k, s.n, false, false, refGemm)
		})
	}
}

// BenchmarkGemmParallel measures the parallel blocked tier at explicit
// worker counts against the w=1 sequential driver (same code the public
// kernels dispatch to). EXPERIMENTS.md records the 1/2/4/8-worker
// throughput table; compare with benchstat:
//
//	go test -run '^$' -bench 'GemmParallel' -benchtime 10x -count 10 ./internal/linalg | tee par.txt
//	benchstat par.txt
//
// On a single-core host every width measures the same, by construction:
// results are bit-identical and the Go scheduler has one P to run on.
func BenchmarkGemmParallel(b *testing.B) {
	for _, n := range []int{512, 1024} {
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("n=%d/w=%d", n, w), func(b *testing.B) {
				a, x := benchTile(n, 1), benchTile(n, 2)
				c := NewTile(n, n)
				run := func(c, a, x *Tile) {
					if w > 1 {
						gemmBlockedParallel(defaultBlockConf, c, a, x, false, false, nil, w)
						return
					}
					gemmBlockedSeq(defaultBlockConf, c, a, x, false, false, nil)
				}
				run(c, a, x) // warm the per-worker scratch pool
				b.ReportAllocs()
				b.SetBytes(GemmFlops(n, n, n)) // MB/s column reads as MFLOP/s
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.Zero()
					run(c, a, x)
				}
			})
		}
	}
}

func BenchmarkMaskedGemm(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	pat := NewTile(256, 256)
	for i := range pat.Data {
		if rng.Float64() < 0.05 {
			pat.Data[i] = 1
		}
	}
	mask := DenseToCSR(pat)
	l, r := benchTile(256, 6), benchTile(256, 7)
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			refMaskedGemm(mask, l, r)
		}
	})
	b.Run("packed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			maskedGemmPacked(mask, l, r)
		}
	})
}

// BenchmarkSpGemmSkinny times the CSR×dense kernels at the shape the
// sparse workloads run — a 256×256 tile at density 0.05 against a 256×r
// factor tile — under the portable axpy loop ("scalar") and the AVX2
// routine ("avx2", skipped where the build or the CPU has none). The MB/s column
// reads as MFLOP/s over the 2·nnz·r flops the product needs.
func BenchmarkSpGemmSkinny(b *testing.B) {
	s := randSparse(rand.New(rand.NewSource(3)), 256, 256, 0.05)
	type arm struct {
		name string
		fn   func(a float64, x, y []float64)
	}
	arms := []arm{{"scalar", axpyScalar}}
	if len(microKernels) > 1 {
		arms = append(arms, arm{"avx2", axpy})
	}
	for _, kern := range []struct {
		name string
		run  func(c *Tile, s *CSRTile, x *Tile)
	}{{"spgemm", SpGemmDense}, {"spgemmTA", SpGemmDenseTA}} {
		for _, r := range []int{8, 32, 128} {
			for _, a := range arms {
				b.Run(fmt.Sprintf("%s/r=%d/%s", kern.name, r, a.name), func(b *testing.B) {
					defer func(prev func(a float64, x, y []float64)) { axpy = prev }(axpy)
					axpy = a.fn
					x, c := randTile(rand.New(rand.NewSource(4)), 256, r), NewTile(256, r)
					b.ReportAllocs()
					b.SetBytes(2 * int64(s.NNZ()) * int64(r))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						c.Zero()
						kern.run(c, s, x)
					}
				})
			}
		}
	}
}

// BenchmarkSetDense times the dense→CSR scan of ingest at gnmf_sparse's
// shape, a 256×256 tile at density 0.05, under the portable loop
// ("scalar") and the AVX2 compaction ("avx2", skipped where the build or
// the CPU has none). The MB/s column is dense bytes scanned; into a
// recycled tile the scan allocates nothing.
func BenchmarkSetDense(b *testing.B) {
	d := RandomSparseDense(256, 256, 0.05, 9)
	type arm struct {
		name string
		fn   func(col []int, val, row []float64, stride int) ([]int, []float64)
	}
	arms := []arm{{"scalar", compactRowScalar}}
	if len(microKernels) > 1 {
		arms = append(arms, arm{"avx2", compactRow})
	}
	for _, a := range arms {
		b.Run(a.name, func(b *testing.B) {
			prev := compactRow
			defer func() { compactRow = prev }()
			compactRow = a.fn
			var s CSRTile
			s.SetDense(d.Data, 256, 256, 256)
			b.ReportAllocs()
			b.SetBytes(8 * 256 * 256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.SetDense(d.Data, 256, 256, 256)
			}
		})
	}
}

func BenchmarkTranspose256(b *testing.B) {
	t := benchTile(256, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		transpose(t)
	}
}
