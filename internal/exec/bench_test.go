package exec

import (
	"fmt"
	"testing"

	"cumulon/internal/cloud"
	"cumulon/internal/compute"
	"cumulon/internal/lang"
	"cumulon/internal/linalg"
	"cumulon/internal/plan"
)

// BenchmarkMaterializedMatMul measures real tile compute through the full
// engine (ingest, decode, kernels, encode, DFS replay, fetch) for the
// sequential reference backend versus the default one (the worker pool on
// the host's compute budget), on an n x n dense multiply and on a sparse
// GNMF at the shape of the perf harness's gnmf_sparse workload (many small
// tasks: sparse ingest, SpMM on either side, transposed leaves). The default's
// wall-clock win scales with the cores the host has; results are
// byte-for-byte identical either way. Run with -benchtime=1x: one
// iteration is a full execution. B/op repeats closely on any host, so CI
// gates the sequential sub-benchmarks and the default GNMF on it (see
// ci.yml): a per-worker buffer that escapes the pools shows there.
func BenchmarkMaterializedMatMul(b *testing.B) {
	mt, err := cloud.TypeByName("m1.large")
	if err != nil {
		b.Fatal(err)
	}
	cl, err := cloud.NewCluster(mt, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	type workload struct {
		name  string
		src   string
		cfg   plan.Config
		data  func() map[string]*linalg.Dense // called once, by the first sub-benchmark that runs
		bytes int64                           // dense input bytes per run
	}
	var ws []workload
	for _, n := range []int{1024, 4096} {
		ws = append(ws, workload{
			name: fmt.Sprintf("n=%d", n),
			src:  fmt.Sprintf("input A %d %d\ninput B %d %d\nC = A * B\noutput C\n", n, n, n, n),
			cfg:  plan.Config{TileSize: 512},
			data: func() map[string]*linalg.Dense {
				return map[string]*linalg.Dense{"A": linalg.RandomDense(n, n, 1), "B": linalg.RandomDense(n, n, 2)}
			},
			bytes: int64(2 * n * n * 8),
		})
	}
	const m, n, r = 4096, 3072, 32
	ws = append(ws, workload{
		name: "gnmf",
		src: fmt.Sprintf("input V %d %d sparse\ninput W %d %d\ninput H %d %d\nfor i in 1:2 {\n"+
			"  H = H .* (W' * V) ./ ((W' * W) * H)\n  W = W .* (V * H') ./ (W * (H * H'))\n}\noutput W\noutput H\n",
			m, n, m, r, r, n),
		cfg: plan.Config{TileSize: 256, Densities: map[string]float64{"V": 0.05}},
		data: func() map[string]*linalg.Dense {
			return map[string]*linalg.Dense{
				"V": linalg.RandomSparseDense(m, n, 0.05, 1),
				"W": linalg.RandomDense(m, r, 2).Map(func(x float64) float64 { return x + 0.5 }),
				"H": linalg.RandomDense(r, n, 3).Map(func(x float64) float64 { return x + 0.5 }),
			}
		},
		bytes: int64((m*n + m*r + r*n) * 8),
	})
	for _, w := range ws {
		prog, err := lang.Parse(w.src)
		if err != nil {
			b.Fatal(err)
		}
		var data map[string]*linalg.Dense
		for _, bk := range []struct {
			name string
			be   compute.Backend
		}{
			{"sequential", compute.NewSequential()},
			{"default", nil},
		} {
			b.Run(w.name+"/"+bk.name, func(b *testing.B) {
				b.SetBytes(w.bytes)
				if data == nil {
					data = w.data()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pl, err := plan.Compile(prog, w.cfg)
					if err != nil {
						b.Fatal(err)
					}
					pl.AutoSplit(cl.TotalSlots())
					e, err := New(Config{Cluster: cl, Materialize: true, Seed: 3, Backend: bk.be})
					if err != nil {
						b.Fatal(err)
					}
					for _, in := range pl.Inputs {
						if err := e.LoadDense(in, data[in.Name]); err != nil {
							b.Fatal(err)
						}
					}
					if _, err := e.Run(pl); err != nil {
						b.Fatal(err)
					}
					for _, out := range pl.Outputs {
						if _, err := e.FetchOutput(out); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// BenchmarkVirtualMatMulRun measures the engine's scheduling throughput:
// one full virtual execution of a 256-task matrix multiply. Its allocs/op
// repeats exactly, so CI gates it (see ci.yml): a virtual run allocates per
// task, not per tile access or per block.
func BenchmarkVirtualMatMulRun(b *testing.B) {
	benchVirtualRun(b, 16, plan.Config{TileSize: 2048}, `
input A 32768 32768
input B 32768 32768
C = A * B
output C
`, nil)
}

// BenchmarkVirtualGNMFRun is the same for the job class that sets
// serve_mixed's p90, at the shape cumulond's load mix submits it: three
// GNMF iterations at paper scale on 4 x 2 slots — 24 jobs and 624 tasks over
// some thirty matrices that come and go, so what a run pays per matrix
// dropped and per task started shows here. CI gates its allocs/op too.
func BenchmarkVirtualGNMFRun(b *testing.B) {
	benchVirtualRun(b, 4, gnmfBenchCfg, gnmfBenchSrc, nil)
}

// BenchmarkVirtualGNMFRunWarm is BenchmarkVirtualGNMFRun on a memo an
// earlier run filled, as cumulond runs a cached plan: the engine schedules,
// places and accounts every task, and computes none. CI gates its
// allocs/op and B/op apart from the cold run's.
func BenchmarkVirtualGNMFRunWarm(b *testing.B) {
	benchVirtualRun(b, 4, gnmfBenchCfg, gnmfBenchSrc, new(compute.Memo))
}

var gnmfBenchCfg = plan.Config{TileSize: 2048, Densities: map[string]float64{"V": 0.01}}

const gnmfBenchSrc = `
input V 100000 50000 sparse
input W 100000 10
input H 10 50000
for i in 1:3 {
  H = H .* (W' * V) ./ ((W' * W) * H)
  W = W .* (V * H') ./ (W * (H * H'))
  checkpoint
}
output W
output H
`

// benchVirtualRun times running src virtually on a fresh engine of nodes x
// 2 m1.large slots. It compiles src once, untimed, and each run executes a
// Clone of that plan, as cumulond runs one from its plan cache. With a memo,
// every run is served by it, and one untimed run fills it first.
func benchVirtualRun(b *testing.B, nodes int, cfg plan.Config, src string, memo *compute.Memo) {
	mt, err := cloud.TypeByName("m1.large")
	if err != nil {
		b.Fatal(err)
	}
	cl, err := cloud.NewCluster(mt, nodes, 2)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := lang.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	tmpl, err := plan.Compile(prog, cfg)
	if err != nil {
		b.Fatal(err)
	}
	run := func(seed int64) {
		pl := tmpl.Clone()
		pl.AutoSplit(cl.TotalSlots())
		ecfg := Config{Cluster: cl, Seed: seed}
		if memo != nil {
			ecfg.Backend = memo
		}
		e, err := New(ecfg)
		if err != nil {
			b.Fatal(err)
		}
		e.Reserve(pl)
		for _, in := range pl.Inputs {
			if err := e.LoadVirtual(in); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := e.Run(pl); err != nil {
			b.Fatal(err)
		}
	}
	if memo != nil {
		run(-1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(int64(i))
	}
}
