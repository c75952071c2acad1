package core_test

import (
	"cumulon/internal/core"
	"math"
	"testing"

	"cumulon/internal/cloud"
	"cumulon/internal/exec"
	"cumulon/internal/lang"
	"cumulon/internal/linalg"
	"cumulon/internal/opt"
	"cumulon/internal/plan"
	"cumulon/internal/workloads"
)

func cluster(t *testing.T, name string, nodes, slots int) cloud.Cluster {
	t.Helper()
	mt, err := cloud.TypeByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cloud.NewCluster(mt, nodes, slots)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestSessionRunMaterialized(t *testing.T) {
	s := core.NewSession(1)
	wl := workloads.GNMF(24, 18, 3, 1, 0.4)
	data := core.RandomInputs(wl.Prog, plan.Config{Densities: wl.Densities}, 3)
	res, err := s.Run(wl.Prog, plan.Config{TileSize: 4, Densities: wl.Densities},
		core.ExecOptions{Cluster: cluster(t, "m1.large", 4, 2), Inputs: data})
	if err != nil {
		t.Fatal(err)
	}
	want, err := lang.Interpret(wl.Prog, data)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"W", "H"} {
		if !res.Outputs[name].AlmostEqual(want[name], 1e-8) {
			t.Fatalf("%s mismatch (maxdiff %g)", name, res.Outputs[name].MaxAbsDiff(want[name]))
		}
	}
	if res.CostDollars <= 0 {
		t.Fatalf("cost: %v", res.CostDollars)
	}
}

func TestSessionRunVirtual(t *testing.T) {
	s := core.NewSession(1)
	wl := workloads.RSVD(32768, 16384, 128, 1)
	res, err := s.Run(wl.Prog, plan.Config{TileSize: 2048},
		core.ExecOptions{Cluster: cluster(t, "c1.medium", 8, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs != nil {
		t.Fatal("virtual run should not fetch outputs")
	}
	if res.Metrics.TotalSeconds <= 0 || len(res.Metrics.Jobs) == 0 {
		t.Fatalf("metrics: %+v", res.Metrics)
	}
}

func TestSessionCompileString(t *testing.T) {
	s := core.NewSession(1)
	pl, err := s.CompileString("input A 8 8\nB = A .* A\noutput B", plan.Config{TileSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Jobs) != 1 {
		t.Fatalf("jobs: %d", len(pl.Jobs))
	}
	if _, err := s.CompileString("input A x", plan.Config{TileSize: 4}); err == nil {
		t.Fatal("want parse error")
	}
}

func TestSessionOptimizeAndRunDeployment(t *testing.T) {
	s := core.NewSession(1)
	wl := workloads.MatMul(16384, 16384, 16384)
	cfg := plan.Config{TileSize: 2048}
	res, err := s.Optimizer().MinCostForDeadline(opt.Request{
		Program:     wl.Prog,
		PlanCfg:     cfg,
		DeadlineSec: 8 * 3600,
		Machines:    []cloud.MachineType{mustType(t, "m1.large"), mustType(t, "c1.xlarge")},
		MaxNodes:    16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatalf("deadline not met: %v", res.Best)
	}
	run, err := s.RunDeployment(wl.Prog, cfg, res.Best, core.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The engine's actual time should be near the optimizer's prediction.
	rel := run.Metrics.TotalSeconds / res.Best.PredSeconds
	if rel < 0.6 || rel > 1.6 {
		t.Fatalf("actual %.0fs far from predicted %.0fs", run.Metrics.TotalSeconds, res.Best.PredSeconds)
	}
}

// TestSessionDefaultsAndPassThrough: ExecOptions is the engine's own
// configuration, and every entry point fills in the same four fields — the
// cluster, the session seed and the 0.08 noise default when those are zero,
// and Materialize from whether Inputs is set — and hands every other field
// to the engine as given. The reference is an engine configured by hand.
func TestSessionDefaultsAndPassThrough(t *testing.T) {
	const sessionSeed = 5
	prog, err := lang.Parse(`
input A 24 24
input B 24 24
for i in 1:2 {
  C = A * B
  D = B * A
  A = C .* D
}
output A
`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := plan.Config{TileSize: 8}
	cl := cluster(t, "m1.large", 4, 2)
	compile := func() *plan.Plan {
		pl, err := plan.Compile(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pl.AutoSplit(cl.TotalSlots())
		return pl
	}
	dep := &opt.Deployment{Cluster: cl, Splits: map[int]plan.Split{}}
	for _, j := range compile().Jobs {
		dep.Splits[j.ID] = j.Split
	}
	// byHand runs the engine directly, in virtual mode.
	byHand := func(ec exec.Config) *exec.RunMetrics {
		ec.Cluster = cl
		eng, err := exec.New(ec)
		if err != nil {
			t.Fatal(err)
		}
		pl := compile()
		for _, in := range pl.Inputs {
			if err := eng.LoadVirtual(in); err != nil {
				t.Fatal(err)
			}
		}
		m, err := eng.Run(pl)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	s := core.NewSession(sessionSeed)
	entries := map[string]func(core.ExecOptions) (*core.ExecResult, error){
		"Run": func(o core.ExecOptions) (*core.ExecResult, error) {
			o.Cluster = cl
			return s.Run(prog, cfg, o)
		},
		"RunDeployment": func(o core.ExecOptions) (*core.ExecResult, error) {
			return s.RunDeployment(prog, cfg, dep, o)
		},
		"ExecutePlan": func(o core.ExecOptions) (*core.ExecResult, error) {
			return s.ExecutePlan(compile(), cl, o)
		},
	}
	cases := []struct {
		name string
		opts core.ExecOptions
		want exec.Config
	}{
		{"defaults", core.ExecOptions{}, exec.Config{Seed: sessionSeed, NoiseFactor: 0.08}},
		{"own seed and noise", core.ExecOptions{Seed: 9, NoiseFactor: 0.3}, exec.Config{Seed: 9, NoiseFactor: 0.3}},
		{"overlap", core.ExecOptions{OverlapJobs: true}, exec.Config{Seed: sessionSeed, NoiseFactor: 0.08, OverlapJobs: true}},
		{"cache", core.ExecOptions{CacheFraction: 0.5}, exec.Config{Seed: sessionSeed, NoiseFactor: 0.08, CacheFraction: 0.5}},
	}
	base := byHand(cases[0].want)
	for _, tc := range cases {
		want := byHand(tc.want)
		if tc.name != "defaults" && want.TotalSeconds == base.TotalSeconds && want.TotalCacheBytes == base.TotalCacheBytes {
			t.Fatalf("%s: the option does not change this run, so the case proves nothing", tc.name)
		}
		for entry, run := range entries {
			res, err := run(tc.opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", entry, tc.name, err)
			}
			if res.Outputs != nil {
				t.Errorf("%s/%s: a run without Inputs is virtual and fetches nothing", entry, tc.name)
			}
			if res.Metrics.TotalSeconds != want.TotalSeconds || res.Metrics.TotalCacheBytes != want.TotalCacheBytes {
				t.Errorf("%s/%s: %.6f s, %d cache bytes; the engine configured by hand gives %.6f s, %d",
					entry, tc.name, res.Metrics.TotalSeconds, res.Metrics.TotalCacheBytes, want.TotalSeconds, want.TotalCacheBytes)
			}
		}
	}
	// Inputs make the run materialized, whatever Materialize says, with
	// the outputs fetched.
	data := core.RandomInputs(prog, cfg, 3)
	ref, err := lang.Interpret(prog, data)
	if err != nil {
		t.Fatal(err)
	}
	for entry, run := range entries {
		res, err := run(core.ExecOptions{Inputs: data})
		if err != nil {
			t.Fatalf("%s: %v", entry, err)
		}
		if got := res.Outputs["A"]; got == nil || !got.AlmostEqual(ref["A"], 1e-9) {
			t.Errorf("%s: materialized output missing or wrong", entry)
		}
		if res.Metrics.TotalSeconds != base.TotalSeconds {
			t.Errorf("%s: materialized run took %.6f virtual s, virtual run %.6f", entry, res.Metrics.TotalSeconds, base.TotalSeconds)
		}
	}
}

// TestSessionDrawsInputsFromSeed: a materialized run with nil Inputs draws
// into its store the matrices RandomInputs returns at the run's seed, the
// session's when it sets none, at any density the configuration gives: its
// outputs and its run are those of a run loading RandomInputs.
func TestSessionDrawsInputsFromSeed(t *testing.T) {
	wl := workloads.GNMF(40, 30, 4, 2, 0.3)
	cl := cluster(t, "m1.large", 4, 2)
	s := core.NewSession(5)
	for _, density := range []float64{0.3, 0} {
		for _, seed := range []int64{9, 0} {
			cfg := plan.Config{TileSize: 16, Densities: map[string]float64{"V": density}}
			drawn, err := s.Run(wl.Prog, cfg, core.ExecOptions{Cluster: cl, Seed: seed, Materialize: true})
			if err != nil {
				t.Fatal(err)
			}
			at := seed
			if at == 0 {
				at = 5
			}
			loaded, err := s.Run(wl.Prog, cfg, core.ExecOptions{Cluster: cl, Seed: seed, Inputs: core.RandomInputs(wl.Prog, cfg, at)})
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(drawn.Outputs, loaded.Outputs) || len(drawn.Outputs) != 2 {
				t.Errorf("density %g, seed %d: the drawn inputs computed other outputs", density, seed)
			}
			if drawn.Metrics.TotalSeconds != loaded.Metrics.TotalSeconds {
				t.Errorf("density %g, seed %d: %g virtual s, loaded %g", density, seed, drawn.Metrics.TotalSeconds, loaded.Metrics.TotalSeconds)
			}
		}
	}
}

// sameBits reports whether a and b hold the same matrices bit for bit, NaNs
// included.
func sameBits(a, b map[string]*linalg.Dense) bool {
	if len(a) != len(b) {
		return false
	}
	for name, d := range a {
		e := b[name]
		if e == nil || e.Rows != d.Rows || e.Cols != d.Cols {
			return false
		}
		for i, v := range d.Data {
			if math.Float64bits(v) != math.Float64bits(e.Data[i]) {
				return false
			}
		}
	}
	return true
}

func TestSessionMissingInput(t *testing.T) {
	s := core.NewSession(1)
	wl := workloads.MatMul(8, 8, 8)
	_, err := s.Run(wl.Prog, plan.Config{TileSize: 4},
		core.ExecOptions{Cluster: cluster(t, "m1.small", 2, 1),
			Inputs: map[string]*linalg.Dense{"A": linalg.NewDense(8, 8)}})
	if err == nil {
		t.Fatal("want missing-input error")
	}
}

func TestRunDeploymentNil(t *testing.T) {
	s := core.NewSession(1)
	wl := workloads.MatMul(8, 8, 8)
	if _, err := s.RunDeployment(wl.Prog, plan.Config{TileSize: 4}, nil, core.ExecOptions{}); err == nil {
		t.Fatal("want nil-deployment error")
	}
}

func mustType(t *testing.T, name string) cloud.MachineType {
	t.Helper()
	mt, err := cloud.TypeByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return mt
}

func TestSessionCompileAndOptimizeBudget(t *testing.T) {
	s := core.NewSession(1)
	wl := workloads.MatMul(16384, 16384, 16384)
	cfg := plan.Config{TileSize: 2048}
	pl, err := s.Compile(wl.Prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Jobs) != 1 {
		t.Fatalf("jobs: %d", len(pl.Jobs))
	}
	res, err := s.Optimizer().MinTimeForBudget(opt.Request{Program: wl.Prog, PlanCfg: cfg, BudgetDollars: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met || res.Best.Cost > 50 {
		t.Fatalf("budget result: %+v", res.Best)
	}
}
