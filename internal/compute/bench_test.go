package compute

import (
	"fmt"
	"testing"

	"cumulon/internal/lang"
	"cumulon/internal/linalg"
	"cumulon/internal/plan"
)

// benchMapJob compiles a representative fused element-wise statement
// (six tile operators: ⊙, ⊘, scale, add, sqrt, sub) over one ts x ts
// tile and returns a warmed Ctx ready to evaluate it repeatedly.
func benchMapJob(b *testing.B, ts int) (*Ctx, *plan.Job) {
	b.Helper()
	src := fmt.Sprintf(`
input A %[1]d %[1]d
input B %[1]d %[1]d
input C %[1]d %[1]d
Out = A .* B + 2 * (C ./ A) - sqrt(B)
output Out
`, ts)
	prog, err := lang.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := plan.Compile(prog, plan.Config{TileSize: ts})
	if err != nil {
		b.Fatal(err)
	}
	var job *plan.Job
	for _, j := range pl.Jobs {
		if j.Kind == plan.MapKind {
			job = j
		}
	}
	if job == nil {
		b.Fatal("no map job in benchmark plan")
	}
	srcMap := mapSource{}
	for _, in := range pl.Inputs {
		d := linalg.RandomDense(ts, ts, 5).Map(func(x float64) float64 { return x + 0.5 })
		loadInput(srcMap, in, d)
	}
	c := newCtx(Env{Src: NewInputs(srcMap)}, 0)
	return c, job
}

// BenchmarkMapEval measures one Map-job tile evaluation: "naive" walks
// the expression tree with the test-side oracle (one pass and one
// intermediate tile per operator),
// "fused" executes the compiled tape in a single cache-chunked pass into
// a pooled tile. The fused variant must run at 0 allocs/op in steady state —
// CI greps this benchmark's output to enforce that.
func BenchmarkMapEval(b *testing.B) {
	for _, ts := range []int{256, 512} {
		b.Run(fmt.Sprintf("naive-%d", ts), func(b *testing.B) {
			c, j := benchMapJob(b, ts)
			flops := int64(j.Prog.Ops()) * int64(ts) * int64(ts)
			if _, err := c.evalTile(j.Expr, j.Leaves, 0, 0, nil); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.evalTile(j.Expr, j.Leaves, 0, 0, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(flops*int64(b.N))/b.Elapsed().Seconds()/1e6, "MFLOP/s")
		})
		b.Run(fmt.Sprintf("fused-%d", ts), func(b *testing.B) {
			c, j := benchMapJob(b, ts)
			flops := int64(j.Prog.Ops()) * int64(ts) * int64(ts)
			warm, owned, err := c.evalProgram(j.Prog, j.Leaves, 0, 0, ts, ts, nil)
			if err != nil {
				b.Fatal(err)
			}
			if owned {
				// Two buffers: a sync.Pool keeps the first it is handed
				// private to the current P, so a goroutine the scheduler
				// moves before the timed loop would find only the second.
				freeTile(newTile(ts, ts, false))
				freeTile(warm)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tile, owned, err := c.evalProgram(j.Prog, j.Leaves, 0, 0, ts, ts, nil)
				if err != nil {
					b.Fatal(err)
				}
				if owned {
					freeTile(tile)
				}
			}
			b.ReportMetric(float64(flops*int64(b.N))/b.Elapsed().Seconds()/1e6, "MFLOP/s")
		})
	}
}

// BenchmarkMulEpilogue measures a full mul-tile with a scalar epilogue:
// "naive" is the test-side oracle, which applies the epilogue as a separate
// tree-walked pass over the finished product; "fused" folds it into the
// blocked GEMM write-back while the panel is cache-resident.
func BenchmarkMulEpilogue(b *testing.B) {
	const ts = 256
	src := fmt.Sprintf(`
input V %[1]d %[1]d
input W %[1]d %[1]d
input H %[1]d %[1]d
Out = V .* (W * H) ./ V
output Out
`, ts)
	prog, err := lang.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := plan.Compile(prog, plan.Config{TileSize: ts})
	if err != nil {
		b.Fatal(err)
	}
	var job *plan.Job
	for _, j := range pl.Jobs {
		if j.Kind == plan.MulKind {
			job = j
		}
	}
	if job == nil || job.Epilogue == nil {
		b.Fatal("benchmark plan lacks a mul job with an epilogue")
	}
	for _, mode := range []struct {
		name  string
		naive bool
	}{{"naive", true}, {"fused", false}} {
		b.Run(mode.name, func(b *testing.B) {
			srcMap := mapSource{}
			for _, in := range pl.Inputs {
				d := linalg.RandomDense(ts, ts, 6).Map(func(x float64) float64 { return x + 0.5 })
				loadInput(srcMap, in, d)
			}
			c := newCtx(Env{Src: NewInputs(srcMap)}, 0)
			ks := Span{Lo: 0, Hi: job.KTiles()}
			run := func() {
				var acc *linalg.Tile
				var err error
				if mode.naive {
					if acc, err = c.oracleMulTile(job, 0, 0, ks); err == nil {
						r, cc := job.Out.TileShape(0, 0)
						_, _, _, err = c.evalTileShaped(job.Epilogue, job.Leaves, 0, 0, acc, r, cc)
					}
				} else {
					acc, err = c.mulTile(job, 0, 0, ks, job.EpiProg)
				}
				if err != nil {
					b.Fatal(err)
				}
				freeTile(acc)
			}
			run()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// sparseRightJob compiles GNMF's H-side product W' * V — a raw transposed
// dense left leaf against a bare sparse right one — over a single ts x ts
// tile of V at density 0.05 and an r-column W, the shape gnmf_sparse runs,
// and returns a Ctx over its inputs.
func sparseRightJob(tb testing.TB, ts, r int) (*Ctx, *plan.Job) {
	tb.Helper()
	prog, err := lang.Parse(fmt.Sprintf("input W %[1]d %[2]d\ninput V %[1]d %[1]d sparse\nH = W' * V\noutput H\n", ts, r))
	if err != nil {
		tb.Fatal(err)
	}
	pl, err := plan.Compile(prog, plan.Config{TileSize: ts, Densities: map[string]float64{"V": 0.05}})
	if err != nil {
		tb.Fatal(err)
	}
	job := pl.Jobs[0]
	if _, sparse := bareSparseLeaf(job.RExpr, job.Leaves); len(pl.Jobs) != 1 || !sparse {
		tb.Fatalf("plan is not one product with a bare sparse right operand: %v", pl.Jobs)
	}
	src := mapSource{}
	for _, in := range pl.Inputs {
		d := linalg.RandomDense(in.Rows, in.Cols, 8)
		if in.Sparse {
			d = linalg.RandomSparseDense(in.Rows, in.Cols, 0.05, 9)
		}
		loadInput(src, in, d)
	}
	return newCtx(Env{Src: NewInputs(src)}, 0), job
}

// BenchmarkMulSparseRight measures one W' * V tile product at gnmf_sparse's
// shape (r = 32, tile 256, density 0.05): "csr" is mulTile, which
// accumulates the transposed output from V's CSR form; "densified" is the
// test-side oracle, which expands V and runs the blocked GEMM over all
// 256 x 256 x 32 terms. Both read from a warm Ctx, so the arms differ by
// the product alone. CI greps 0 allocs/op on the csr arm.
func BenchmarkMulSparseRight(b *testing.B) {
	for _, arm := range []struct {
		name string
		mul  func(c *Ctx, j *plan.Job, ks Span) (*linalg.Tile, error)
	}{
		{"csr", func(c *Ctx, j *plan.Job, ks Span) (*linalg.Tile, error) { return c.mulTile(j, 0, 0, ks, nil) }},
		{"densified", func(c *Ctx, j *plan.Job, ks Span) (*linalg.Tile, error) { return c.oracleMulTile(j, 0, 0, ks) }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			c, j := sparseRightJob(b, 256, 32)
			ks := Span{Lo: 0, Hi: j.KTiles()}
			run := func() {
				acc, err := arm.mul(c, j, ks)
				if err != nil {
					b.Fatal(err)
				}
				freeTile(acc)
			}
			run()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}
