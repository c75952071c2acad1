package cumulon

// Differential integration tests: random shape-valid programs executed
// through every stack — the reference interpreter, the Cumulon engine
// under a matrix of configurations (replication, racks, overlap,
// speculation, fault injection), and the MapReduce baseline — must all
// agree on values, while virtual-mode runs of the same plans must agree
// with materialized runs on work accounting.

import (
	"testing"

	"cumulon/internal/chaos"
	"cumulon/internal/cloud"
	"cumulon/internal/compute"
	"cumulon/internal/exec"
	"cumulon/internal/lang"
	"cumulon/internal/linalg"
	"cumulon/internal/mapred"
	"cumulon/internal/plan"
	"cumulon/internal/testutil"
)

func integCluster(t *testing.T, nodes, slots int) cloud.Cluster {
	t.Helper()
	mt, err := cloud.TypeByName("m1.large")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cloud.NewCluster(mt, nodes, slots)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// engineVariant describes one engine configuration under test.
type engineVariant struct {
	name string
	cfg  func(cl cloud.Cluster) exec.Config
}

func variants(t *testing.T) []engineVariant {
	return []engineVariant{
		{"default", func(cl cloud.Cluster) exec.Config {
			return exec.Config{Cluster: cl, Materialize: true, Seed: 1}
		}},
		{"replication1", func(cl cloud.Cluster) exec.Config {
			return exec.Config{Cluster: cl, Materialize: true, Seed: 2, Replication: 1}
		}},
		{"racked", func(cl cloud.Cluster) exec.Config {
			return exec.Config{Cluster: cl, Materialize: true, Seed: 3, RackSize: 2, CrossRackPenalty: 3}
		}},
		{"overlap", func(cl cloud.Cluster) exec.Config {
			return exec.Config{Cluster: cl, Materialize: true, Seed: 4, OverlapJobs: true}
		}},
		{"speculation", func(cl cloud.Cluster) exec.Config {
			return exec.Config{Cluster: cl, Materialize: true, Seed: 5, NoiseFactor: 0.5, Speculation: true}
		}},
		{"faulty", func(cl cloud.Cluster) exec.Config {
			return exec.Config{Cluster: cl, Materialize: true, Seed: 6,
				Chaos: &chaos.Schedule{Seed: 6, TaskFaultProb: 0.1, ReadFaultProb: 0.03}}
		}},
	}
}

// TestDifferentialEngineConfigurations runs random programs through every
// engine variant and checks values against the interpreter.
func TestDifferentialEngineConfigurations(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := testutil.NewGen(seed)
		prog := g.Program("diff", 2, 3)
		data := g.InputData(seed * 31)
		want, err := lang.Interpret(prog, data)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, v := range variants(t) {
			pl, err := plan.Compile(prog, plan.Config{TileSize: 4})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, v.name, err)
			}
			cl := integCluster(t, 4, 2)
			pl.AutoSplit(cl.TotalSlots())
			e, err := exec.New(v.cfg(cl))
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, v.name, err)
			}
			for _, in := range pl.Inputs {
				if err := e.LoadDense(in, data[in.Name]); err != nil {
					t.Fatalf("seed %d %s: %v", seed, v.name, err)
				}
			}
			if _, err := e.Run(pl); err != nil {
				t.Fatalf("seed %d %s: run: %v", seed, v.name, err)
			}
			for name, meta := range pl.Outputs {
				got, err := e.FetchOutput(meta)
				if err != nil {
					t.Fatalf("seed %d %s: fetch: %v", seed, v.name, err)
				}
				if !got.AlmostEqual(want[name], 1e-8) {
					t.Fatalf("seed %d %s: output %s diverges (maxdiff %g)\n%s",
						seed, v.name, name, got.MaxAbsDiff(want[name]), prog)
				}
			}
		}
	}
}

// TestDifferentialMapReduceAgreement checks Cumulon and the MR baseline
// produce identical values on the same random programs.
func TestDifferentialMapReduceAgreement(t *testing.T) {
	for seed := int64(20); seed < 26; seed++ {
		g := testutil.NewGen(seed)
		prog := g.Program("mr", 2, 3)
		data := g.InputData(seed * 17)

		cl := integCluster(t, 3, 2)
		pl, err := plan.Compile(prog, plan.Config{TileSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		pl.AutoSplit(cl.TotalSlots())
		e, err := exec.New(exec.Config{Cluster: cl, Materialize: true, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range pl.Inputs {
			if err := e.LoadDense(in, data[in.Name]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Run(pl); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		mr, err := mapred.New(mapred.Config{Cluster: cl, Materialize: true})
		if err != nil {
			t.Fatal(err)
		}
		_, mrOut, err := mr.Run(prog, nil, data)
		if err != nil {
			t.Fatalf("seed %d: mr: %v", seed, err)
		}
		for name, meta := range pl.Outputs {
			got, err := e.FetchOutput(meta)
			if err != nil {
				t.Fatal(err)
			}
			if !got.AlmostEqual(mrOut[name], 1e-8) {
				t.Fatalf("seed %d: engines disagree on %s (maxdiff %g)",
					seed, name, got.MaxAbsDiff(mrOut[name]))
			}
		}
	}
}

// TestVirtualMatchesMaterializedAccounting runs the same random plans in
// both modes and compares flop and write accounting (reads can differ by
// sparse-estimate rounding, so they get a tolerance).
func TestVirtualMatchesMaterializedAccounting(t *testing.T) {
	for seed := int64(40); seed < 46; seed++ {
		g := testutil.NewGen(seed)
		prog := g.Program("acct", 2, 2)
		data := g.InputData(seed * 11)

		run := func(materialize bool) *exec.RunMetrics {
			pl, err := plan.Compile(prog, plan.Config{TileSize: 4})
			if err != nil {
				t.Fatal(err)
			}
			cl := integCluster(t, 3, 2)
			pl.AutoSplit(cl.TotalSlots())
			e, err := exec.New(exec.Config{Cluster: cl, Materialize: materialize, Seed: 8})
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range pl.Inputs {
				if materialize {
					err = e.LoadDense(in, data[in.Name])
				} else {
					err = e.LoadVirtual(in)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			m, err := e.Run(pl)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		real, virt := run(true), run(false)
		if real.TotalFlops != virt.TotalFlops {
			t.Fatalf("seed %d: flops %d vs %d", seed, real.TotalFlops, virt.TotalFlops)
		}
		if real.TotalWriteBytes != virt.TotalWriteBytes {
			t.Fatalf("seed %d: writes %d vs %d", seed, real.TotalWriteBytes, virt.TotalWriteBytes)
		}
		if len(real.Tasks) != len(virt.Tasks) {
			t.Fatalf("seed %d: task counts %d vs %d", seed, len(real.Tasks), len(virt.Tasks))
		}
	}
}

// TestEndToEndGNMFAllFeatures runs GNMF with every engine feature enabled
// at once and verifies convergence behaviour survives the full stack.
func TestEndToEndGNMFAllFeatures(t *testing.T) {
	src := `
input V 24 18 sparse
input W 24 3
input H 3 18
for i in 1:4 {
  H = H .* (W' * V) ./ ((W' * W) * H)
  W = W .* (V * H') ./ (W * (H * H'))
}
output W
output H
`
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	v := linalg.RandomSparseDense(24, 18, 0.5, 1)
	w0 := linalg.RandomDense(24, 3, 2).Map(func(x float64) float64 { return x + 0.1 })
	h0 := linalg.RandomDense(3, 18, 3).Map(func(x float64) float64 { return x + 0.1 })
	data := map[string]*linalg.Dense{"V": v, "W": w0, "H": h0}

	pl, err := plan.Compile(prog, plan.Config{TileSize: 4, Densities: map[string]float64{"V": 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	cl := integCluster(t, 4, 2)
	pl.AutoSplit(cl.TotalSlots())
	e, err := exec.New(exec.Config{
		Cluster: cl, Materialize: true, Seed: 13,
		RackSize: 2, NoiseFactor: 0.3, Speculation: true, OverlapJobs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range pl.Inputs {
		if err := e.LoadDense(in, data[in.Name]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Run(pl); err != nil {
		t.Fatal(err)
	}
	wOut, err := e.FetchOutput(pl.Outputs["W"])
	if err != nil {
		t.Fatal(err)
	}
	hOut, err := e.FetchOutput(pl.Outputs["H"])
	if err != nil {
		t.Fatal(err)
	}
	before := v.Sub(w0.Mul(h0)).FrobeniusNorm()
	after := v.Sub(wOut.Mul(hOut)).FrobeniusNorm()
	if after >= before {
		t.Fatalf("GNMF did not converge through the full stack: %g -> %g", before, after)
	}
	// And the values still match the interpreter exactly.
	want, err := lang.Interpret(prog, data)
	if err != nil {
		t.Fatal(err)
	}
	if !wOut.AlmostEqual(want["W"], 1e-8) || !hOut.AlmostEqual(want["H"], 1e-8) {
		t.Fatal("full-stack GNMF diverges from the interpreter")
	}
}

// TestGNMFWorkerCountInvariance runs the full GNMF loop materialized with
// workers=1, with a worker pool, and with the default configuration under
// compute budgets of 1 to 8 tokens, and asserts the runs are
// indistinguishable: same virtual completion time, same output norms. The
// budget is set explicitly so the test exercises real multi-goroutine
// compute even on a one-core host.
func TestGNMFWorkerCountInvariance(t *testing.T) {
	src := `
input V 24 18 sparse
input W 24 3
input H 3 18
for i in 1:3 {
  H = H .* (W' * V) ./ ((W' * W) * H)
  W = W .* (V * H') ./ (W * (H * H'))
}
output W
output H
`
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	data := map[string]*linalg.Dense{
		"V": linalg.RandomSparseDense(24, 18, 0.5, 1),
		"W": linalg.RandomDense(24, 3, 2).Map(func(x float64) float64 { return x + 0.1 }),
		"H": linalg.RandomDense(3, 18, 3).Map(func(x float64) float64 { return x + 0.1 }),
	}
	run := func(be compute.Backend, workers int) (float64, map[string]float64) {
		pl, err := plan.Compile(prog, plan.Config{TileSize: 4, Densities: map[string]float64{"V": 0.5}})
		if err != nil {
			t.Fatal(err)
		}
		cl := integCluster(t, 4, 2)
		pl.AutoSplit(cl.TotalSlots())
		e, err := exec.New(exec.Config{
			Cluster: cl, Materialize: true, Seed: 13,
			RackSize: 2, NoiseFactor: 0.2, Speculation: true,
			CacheFraction: 0.4, Workers: workers, Backend: be,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range pl.Inputs {
			if err := e.LoadDense(in, data[in.Name]); err != nil {
				t.Fatal(err)
			}
		}
		m, err := e.Run(pl)
		if err != nil {
			t.Fatal(err)
		}
		norms := map[string]float64{}
		for name, meta := range pl.Outputs {
			d, err := e.FetchOutput(meta)
			if err != nil {
				t.Fatal(err)
			}
			norms[name] = d.FrobeniusNorm()
		}
		return m.TotalSeconds, norms
	}
	seqSecs, seqNorms := run(nil, 1)
	check := func(be compute.Backend, workers int) {
		t.Helper()
		poolSecs, poolNorms := run(be, workers)
		if seqSecs != poolSecs {
			t.Fatalf("virtual completion time depends on worker count: %v vs %v", seqSecs, poolSecs)
		}
		for name, sn := range seqNorms {
			if pn := poolNorms[name]; pn != sn {
				t.Fatalf("output %s norm depends on worker count: %v vs %v", name, sn, pn)
			}
		}
	}
	check(compute.NewPool(8), 0)
	// Workers: 0 is the host's compute budget, whatever its size.
	for _, budget := range []int{1, 2, 4, 8} {
		prev := linalg.SetParallelism(budget)
		check(nil, 0)
		linalg.SetParallelism(prev)
	}
}

// Property: dependency-driven overlap never loses to barrier scheduling,
// across random programs and seeds.
func TestOverlapNeverSlower(t *testing.T) {
	for seed := int64(60); seed < 70; seed++ {
		g := testutil.NewGen(seed)
		prog := g.Program("ovl", 3, 3)
		run := func(overlap bool) float64 {
			pl, err := plan.Compile(prog, plan.Config{TileSize: 4})
			if err != nil {
				t.Fatal(err)
			}
			cl := integCluster(t, 4, 2)
			pl.AutoSplit(2) // under-split to leave slack
			e, err := exec.New(exec.Config{Cluster: cl, Seed: 17, OverlapJobs: overlap})
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range pl.Inputs {
				if err := e.LoadVirtual(in); err != nil {
					t.Fatal(err)
				}
			}
			m, err := e.Run(pl)
			if err != nil {
				t.Fatal(err)
			}
			return m.TotalSeconds
		}
		barrier, overlap := run(false), run(true)
		if overlap > barrier*1.001 {
			t.Fatalf("seed %d: overlap (%v) slower than barrier (%v)\n%s",
				seed, overlap, barrier, prog)
		}
	}
}
