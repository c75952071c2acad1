package exec

import (
	"math"
	"slices"
	"strings"
	"testing"

	"cumulon/internal/chaos"
	"cumulon/internal/cloud"
	"cumulon/internal/compute"
	"cumulon/internal/dfs"
	"cumulon/internal/lang"
	"cumulon/internal/linalg"
	"cumulon/internal/plan"
	"cumulon/internal/testutil"
)

func testCluster(t *testing.T, nodes, slots int) cloud.Cluster {
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

func newTestEngine(t *testing.T, nodes, slots int, materialize bool) *Engine {
	t.Helper()
	e, err := New(Config{
		Cluster:     testCluster(t, nodes, slots),
		Materialize: materialize,
		Seed:        7,
		NoiseFactor: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// runProgram compiles src, loads inputs, runs it, and returns outputs plus
// metrics.
func runProgram(t *testing.T, e *Engine, src string, cfg plan.Config, data map[string]*linalg.Dense, totalSlots int) (map[string]*linalg.Dense, *RunMetrics, *plan.Plan) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.TileSize == 0 {
		cfg.TileSize = 4
	}
	pl, err := plan.Compile(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl.AutoSplit(totalSlots)
	for _, in := range pl.Inputs {
		if err := e.LoadDense(in, data[in.Name]); err != nil {
			t.Fatal(err)
		}
	}
	m, err := e.Run(pl)
	if err != nil {
		t.Fatal(err)
	}
	outs := map[string]*linalg.Dense{}
	for name, meta := range pl.Outputs {
		d, err := e.FetchOutput(meta)
		if err != nil {
			t.Fatal(err)
		}
		outs[name] = d
	}
	return outs, m, pl
}

func TestEngineMatMulMatchesOracle(t *testing.T) {
	e := newTestEngine(t, 4, 2, true)
	a := linalg.RandomDense(19, 11, 1)
	b := linalg.RandomDense(11, 7, 2)
	outs, m, _ := runProgram(t, e, `
input A 19 11
input B 11 7
C = A * B
output C
`, plan.Config{}, map[string]*linalg.Dense{"A": a, "B": b}, 8)
	want := a.Mul(b)
	if !outs["C"].AlmostEqual(want, 1e-9) {
		t.Fatalf("matmul mismatch, maxdiff %g", outs["C"].MaxAbsDiff(want))
	}
	if m.TotalSeconds <= 0 || len(m.Tasks) == 0 {
		t.Fatalf("metrics: %+v", m)
	}
}

func TestEngineFusedEpilogue(t *testing.T) {
	e := newTestEngine(t, 3, 2, true)
	h := linalg.RandomDense(5, 30, 3).Map(func(x float64) float64 { return x + 0.5 })
	w := linalg.RandomDense(40, 5, 4).Map(func(x float64) float64 { return x + 0.5 })
	v := linalg.RandomDense(40, 30, 5).Map(func(x float64) float64 { return x + 0.5 })
	outs, _, pl := runProgram(t, e, `
input H 5 30
input W 40 5
input V 40 30
H = H .* (W' * V)
output H
`, plan.Config{}, map[string]*linalg.Dense{"H": h, "W": w, "V": v}, 6)
	if len(pl.Jobs) != 1 {
		t.Fatalf("fusion regressed: %d jobs", len(pl.Jobs))
	}
	want := h.ElemMul(w.T().Mul(v))
	if !outs["H"].AlmostEqual(want, 1e-9) {
		t.Fatalf("fused epilogue mismatch, maxdiff %g", outs["H"].MaxAbsDiff(want))
	}
}

func TestEngineKSplitAggregation(t *testing.T) {
	e := newTestEngine(t, 4, 2, true)
	a := linalg.RandomDense(8, 33, 6)
	b := linalg.RandomDense(33, 8, 7)
	prog, err := lang.Parse(`
input A 8 33
input B 33 8
C = A * B
output C
`)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.Compile(prog, plan.Config{TileSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Force a 3-way k-split: exercises partials plus aggregation phase.
	pl.Jobs[0].Split = plan.Split{CI: 2, CJ: 2, CK: 3}
	for _, in := range pl.Inputs {
		if err := e.LoadDense(in, map[string]*linalg.Dense{"A": a, "B": b}[in.Name]); err != nil {
			t.Fatal(err)
		}
	}
	m, err := e.Run(pl)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.FetchOutput(pl.Outputs["C"])
	if err != nil {
		t.Fatal(err)
	}
	if !got.AlmostEqual(a.Mul(b), 1e-9) {
		t.Fatalf("k-split product mismatch, maxdiff %g", got.MaxAbsDiff(a.Mul(b)))
	}
	if m.Jobs[0].Phases != 2 {
		t.Fatalf("k-split job should run 2 phases, got %d", m.Jobs[0].Phases)
	}
	// Partial matrices must be garbage collected.
	if paths := e.FS().List("/matrix/C#1~p"); len(paths) != 0 {
		t.Fatalf("partials not cleaned: %v", paths)
	}
}

func TestEngineSparseInput(t *testing.T) {
	e := newTestEngine(t, 3, 2, true)
	v := linalg.RandomSparseDense(30, 20, 0.15, 8)
	h := linalg.RandomDense(20, 6, 9)
	outs, m, _ := runProgram(t, e, `
input V 30 20 sparse
input H 20 6
X = V * H
output X
`, plan.Config{Densities: map[string]float64{"V": 0.15}}, map[string]*linalg.Dense{"V": v, "H": h}, 6)
	want := v.Mul(h)
	if !outs["X"].AlmostEqual(want, 1e-9) {
		t.Fatalf("sparse matmul mismatch, maxdiff %g", outs["X"].MaxAbsDiff(want))
	}
	// The sparse kernel must do far fewer flops than a dense product.
	dense := 2 * int64(30) * 20 * 6
	if m.TotalFlops >= dense {
		t.Fatalf("sparse flops %d not below dense %d", m.TotalFlops, dense)
	}
}

func TestEngineSparseTransposedLeaf(t *testing.T) {
	e := newTestEngine(t, 3, 2, true)
	v := linalg.RandomSparseDense(25, 10, 0.2, 10)
	w := linalg.RandomDense(25, 4, 11)
	outs, _, _ := runProgram(t, e, `
input V 25 10 sparse
input W 25 4
X = V' * W
output X
`, plan.Config{Densities: map[string]float64{"V": 0.2}}, map[string]*linalg.Dense{"V": v, "W": w}, 6)
	want := v.T().Mul(w)
	if !outs["X"].AlmostEqual(want, 1e-9) {
		t.Fatalf("sparse transposed matmul mismatch, maxdiff %g", outs["X"].MaxAbsDiff(want))
	}
}

// TestEngineDoubleTransposedLeaves covers the C = A' * B' compute path,
// where both multiply operands are bare transposed dense leaves and the
// task layer feeds the raw tiles straight into the transposed GEMM
// kernels instead of materializing either transpose.
func TestEngineDoubleTransposedLeaves(t *testing.T) {
	e := newTestEngine(t, 3, 2, true)
	a := linalg.RandomDense(13, 21, 21)
	b := linalg.RandomDense(9, 13, 22)
	outs, _, _ := runProgram(t, e, `
input A 13 21
input B 9 13
X = A' * B'
output X
`, plan.Config{}, map[string]*linalg.Dense{"A": a, "B": b}, 6)
	want := a.T().Mul(b.T())
	if !outs["X"].AlmostEqual(want, 1e-9) {
		t.Fatalf("double-transposed matmul mismatch, maxdiff %g", outs["X"].MaxAbsDiff(want))
	}
}

// The central integration property: on random programs, the distributed
// engine agrees with the reference interpreter.
func TestEngineMatchesInterpreterOnRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		g := testutil.NewGen(seed)
		prog := g.Program("rand", 2, 3)
		data := g.InputData(seed * 13)
		want, err := lang.Interpret(prog, data)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		pl, err := plan.Compile(prog, plan.Config{TileSize: 4})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		pl.AutoSplit(4)
		e := newTestEngine(t, 3, 2, true)
		for _, in := range pl.Inputs {
			if err := e.LoadDense(in, data[in.Name]); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		m, err := e.Run(pl)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, pl)
		}
		checkFootprint(t, pl, m, false)
		for name, meta := range pl.Outputs {
			got, err := e.FetchOutput(meta)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !got.AlmostEqual(want[name], 1e-8) {
				t.Fatalf("seed %d output %s mismatch (maxdiff %g)\nprogram:\n%s",
					seed, name, got.MaxAbsDiff(want[name]), prog)
			}
		}
	}
}

func TestEngineVirtualModeMatchesWorkProfile(t *testing.T) {
	// The same plan, materialized vs virtual: identical task counts and
	// near-identical byte/flop accounting (virtual estimates dense exactly).
	src := `
input A 32 24
input B 24 16
C = abs(A * B) .* (A * B)
output C
`
	a := linalg.RandomDense(32, 24, 12)
	b := linalg.RandomDense(24, 16, 13)

	eReal := newTestEngine(t, 4, 2, true)
	_, mReal, _ := runProgram(t, eReal, src, plan.Config{}, map[string]*linalg.Dense{"A": a, "B": b}, 8)

	eVirt := newTestEngine(t, 4, 2, false)
	prog, _ := lang.Parse(src)
	pl, err := plan.Compile(prog, plan.Config{TileSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	pl.AutoSplit(8)
	for _, in := range pl.Inputs {
		if err := eVirt.LoadVirtual(in); err != nil {
			t.Fatal(err)
		}
	}
	mVirt, err := eVirt.Run(pl)
	if err != nil {
		t.Fatal(err)
	}
	if len(mReal.Tasks) != len(mVirt.Tasks) {
		t.Fatalf("task counts differ: %d vs %d", len(mReal.Tasks), len(mVirt.Tasks))
	}
	if mReal.TotalFlops != mVirt.TotalFlops {
		t.Fatalf("flops differ: %d vs %d", mReal.TotalFlops, mVirt.TotalFlops)
	}
	rb := float64(mReal.TotalReadBytes)
	if math.Abs(rb-float64(mVirt.TotalReadBytes))/rb > 0.01 {
		t.Fatalf("read bytes diverge: %d vs %d", mReal.TotalReadBytes, mVirt.TotalReadBytes)
	}
	if mReal.TotalWriteBytes != mVirt.TotalWriteBytes {
		t.Fatalf("write bytes differ: %d vs %d", mReal.TotalWriteBytes, mVirt.TotalWriteBytes)
	}
}

func TestEngineMoreNodesFaster(t *testing.T) {
	src := `
input A 8192 8192
input B 8192 8192
C = A * B
output C
`
	run := func(nodes int) float64 {
		prog, _ := lang.Parse(src)
		pl, err := plan.Compile(prog, plan.Config{TileSize: 1024})
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(Config{Cluster: testCluster(t, nodes, 2), Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		pl.AutoSplit(nodes * 2)
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
	t2, t8 := run(2), run(8)
	if t8 >= t2 {
		t.Fatalf("8 nodes (%.1fs) not faster than 2 nodes (%.1fs)", t8, t2)
	}
}

func TestEngineRetryOnInjectedFault(t *testing.T) {
	e, err := New(Config{
		Cluster:     testCluster(t, 3, 2),
		Materialize: true,
		Seed:        1,
		Chaos: &chaos.Schedule{Targets: []chaos.TargetFault{
			{Job: 0, Phase: 0, Index: 0, Attempts: 1},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := linalg.RandomDense(8, 8, 1)
	outs, m, _ := runProgram(t, e, `
input A 8 8
B = A .* A
output B
`, plan.Config{}, map[string]*linalg.Dense{"A": a}, 6)
	if !outs["B"].AlmostEqual(a.ElemMul(a), 1e-12) {
		t.Fatal("result wrong after retry")
	}
	retried := false
	for _, tr := range m.Tasks {
		if tr.Retries > 0 {
			retried = true
		}
	}
	if !retried {
		t.Fatal("no retry recorded")
	}
	recovered := false
	for _, tr := range m.Tasks {
		if tr.Retries > 0 && tr.RecoverySec > 0 {
			recovered = true
		}
	}
	if !recovered {
		t.Fatal("retried task charged no recovery time")
	}
}

func TestEnginePersistentFaultFailsJob(t *testing.T) {
	// Index 0 fails on every attempt: the retry budget must run out and
	// fail the job terminally instead of retrying forever.
	e, err := New(Config{
		Cluster:     testCluster(t, 3, 2),
		Materialize: true,
		Seed:        1,
		Chaos: &chaos.Schedule{Targets: []chaos.TargetFault{
			{Job: -1, Phase: -1, Index: 0, Attempts: 1 << 30},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	prog, _ := lang.Parse("input A 8 8\nB = A .* A\noutput B")
	pl, err := plan.Compile(prog, plan.Config{TileSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadDense(pl.Inputs[0], linalg.RandomDense(8, 8, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(pl); err == nil {
		t.Fatal("want failure after exhausted retries")
	}
}

func TestEngineRetryBudgetConfigurable(t *testing.T) {
	// A task that fails exactly 5 times succeeds with a budget of 5 and
	// fails terminally with the default budget of 3.
	run := func(budget int) error {
		e, err := New(Config{
			Cluster:        testCluster(t, 3, 2),
			Materialize:    true,
			Seed:           1,
			MaxTaskRetries: budget,
			Chaos: &chaos.Schedule{Targets: []chaos.TargetFault{
				{Job: 0, Phase: 0, Index: 0, Attempts: 5},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		prog, _ := lang.Parse("input A 8 8\nB = A .* A\noutput B")
		pl, err := plan.Compile(prog, plan.Config{TileSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.LoadDense(pl.Inputs[0], linalg.RandomDense(8, 8, 1)); err != nil {
			t.Fatal(err)
		}
		_, err = e.Run(pl)
		return err
	}
	if err := run(5); err != nil {
		t.Fatalf("budget 5 should absorb 5 faults: %v", err)
	}
	if err := run(0); err == nil {
		t.Fatal("default budget (3) should fail on 5 faults")
	}
	if err := run(-1); err == nil {
		t.Fatal("negative budget disables retries; even one fault must be terminal")
	}
}

func TestEngineRetryBackoffCharged(t *testing.T) {
	// Two failed attempts each charge the machine's task startup plus the
	// exponential backoff: 2*StartupSec + retryBackoffSec*(2^0 + 2^1).
	cluster := testCluster(t, 3, 2)
	e, err := New(Config{
		Cluster:     cluster,
		Materialize: true,
		Seed:        1,
		Chaos: &chaos.Schedule{Targets: []chaos.TargetFault{
			{Job: 0, Phase: 0, Index: 0, Attempts: 2},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, m, _ := runProgram(t, e, "input A 8 8\nB = A .* A\noutput B",
		plan.Config{}, map[string]*linalg.Dense{"A": linalg.RandomDense(8, 8, 1)}, 6)
	var recovery float64
	for _, tr := range m.Tasks {
		recovery += tr.RecoverySec
	}
	if want := 2*cluster.Type.StartupSec + 3*retryBackoffSec; math.Abs(recovery-want) > 1e-9 {
		t.Fatalf("recovery = %.3fs, want %.3fs (two startups, backoff %g+%g)", recovery, want, retryBackoffSec, 2*retryBackoffSec)
	}
	if m.TotalRetries != 2 {
		t.Fatalf("retries: %d, want 2", m.TotalRetries)
	}
}

func TestEngineAllNodesDeadSurfacesError(t *testing.T) {
	// With every other node dead, a faulting task has nowhere to retry:
	// pickOtherNode must surface a scheduling error, not loop on the same
	// node.
	e, err := New(Config{
		Cluster:     testCluster(t, 3, 2),
		Materialize: true,
		Seed:        1,
		Chaos: &chaos.Schedule{Targets: []chaos.TargetFault{
			{Job: 0, Phase: 0, Index: 0, Attempts: 1},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	prog, _ := lang.Parse("input A 8 8\nB = A .* A\noutput B")
	pl, err := plan.Compile(prog, plan.Config{TileSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadDense(pl.Inputs[0], linalg.RandomDense(8, 8, 1)); err != nil {
		t.Fatal(err)
	}
	e.FS().KillNode(1)
	e.FS().KillNode(2)
	_, err = e.Run(pl)
	if err == nil {
		t.Fatal("want scheduling error when no other live node exists")
	}
	if !strings.Contains(err.Error(), "no other live node") {
		t.Fatalf("error should name the retry dead end, got: %v", err)
	}
}

func TestEngineSurvivesDeadNode(t *testing.T) {
	e := newTestEngine(t, 4, 2, true)
	a := linalg.RandomDense(16, 16, 2)
	prog, _ := lang.Parse("input A 16 16\nB = A .* A\noutput B")
	pl, err := plan.Compile(prog, plan.Config{TileSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	pl.AutoSplit(8)
	if err := e.LoadDense(pl.Inputs[0], a); err != nil {
		t.Fatal(err)
	}
	// A node dies after ingest; replication must keep all tiles readable
	// and the scheduler must avoid the dead node.
	e.FS().KillNode(1)
	m, err := e.Run(pl)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range m.Tasks {
		if tr.Node == 1 {
			t.Fatal("task scheduled on dead node")
		}
	}
	got, err := e.FetchOutput(pl.Outputs["B"])
	if err != nil {
		t.Fatal(err)
	}
	if !got.AlmostEqual(a.ElemMul(a), 1e-12) {
		t.Fatal("result wrong after node death")
	}
}

func TestEngineRerunOverwrites(t *testing.T) {
	e := newTestEngine(t, 3, 2, true)
	a := linalg.RandomDense(8, 8, 3)
	prog, _ := lang.Parse("input A 8 8\nB = 2 * A\noutput B")
	pl, err := plan.Compile(prog, plan.Config{TileSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadDense(pl.Inputs[0], a); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(pl); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(pl); err != nil {
		t.Fatalf("re-run failed: %v", err)
	}
	got, err := e.FetchOutput(pl.Outputs["B"])
	if err != nil {
		t.Fatal(err)
	}
	if !got.AlmostEqual(a.Scale(2), 1e-12) {
		t.Fatal("re-run result wrong")
	}
}

func TestEngineDeterministicTiming(t *testing.T) {
	run := func() float64 {
		e := newTestEngine(t, 4, 2, false)
		prog, _ := lang.Parse("input A 64 64\ninput B 64 64\nC = A * B\noutput C")
		pl, err := plan.Compile(prog, plan.Config{TileSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		pl.AutoSplit(8)
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
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different times: %v vs %v", a, b)
	}
}

func TestEngineGCIntermediates(t *testing.T) {
	e := newTestEngine(t, 3, 2, true)
	a := linalg.RandomDense(8, 8, 4)
	_, _, pl := runProgram(t, e, `
input A 8 8
B = (A * A) .* (A * A')
output B
`, plan.Config{}, map[string]*linalg.Dense{"A": a}, 4)
	for _, im := range pl.Intermediates() {
		if paths := e.FS().List("/matrix/" + im.Name + "/"); len(paths) != 0 {
			t.Fatalf("intermediate %s not collected: %v", im.Name, paths)
		}
	}
}

func TestEngineOverlapJobsFasterOnIndependentWork(t *testing.T) {
	// Two independent products: with barriers they serialize; with
	// overlap they share the cluster.
	src := `
input A 16384 16384
input B 16384 16384
C = A * B
D = B * A
output C
output D
`
	run := func(overlap bool) float64 {
		prog, _ := lang.Parse(src)
		pl, err := plan.Compile(prog, plan.Config{TileSize: 2048})
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(Config{Cluster: testCluster(t, 8, 2), Seed: 3, OverlapJobs: overlap})
		if err != nil {
			t.Fatal(err)
		}
		// Deliberately under-split each job so one alone cannot fill the
		// cluster: 8 tasks per job on 16 slots.
		for _, j := range pl.Jobs {
			j.Split = plan.Split{CI: 4, CJ: 2, CK: 1}
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
	if overlap >= barrier*0.8 {
		t.Fatalf("overlap (%.1fs) should clearly beat barriers (%.1fs)", overlap, barrier)
	}
}

func TestEngineOverlapRespectsDependencies(t *testing.T) {
	// A chain C = (A*A)*A: the second job cannot start before the first
	// ends, so overlap cannot reorder dependent work, and results stay
	// correct.
	e, err := New(Config{Cluster: testCluster(t, 3, 2), Materialize: true, Seed: 1, OverlapJobs: true})
	if err != nil {
		t.Fatal(err)
	}
	a := linalg.RandomDense(12, 12, 9)
	outs, m, _ := runProgram(t, e, `
input A 12 12
C = (A * A) * A
output C
`, plan.Config{}, map[string]*linalg.Dense{"A": a}, 6)
	want := a.Mul(a).Mul(a)
	if !outs["C"].AlmostEqual(want, 1e-9) {
		t.Fatal("overlap broke dependent results")
	}
	// The dependent job must start no earlier than its dependency ends.
	var first, second JobRecord
	for _, j := range m.Jobs {
		if j.JobID == 0 {
			first = j
		}
		if j.JobID == 1 {
			second = j
		}
	}
	if second.StartSec < first.EndSec-1e-9 {
		t.Fatalf("dependent job started at %v before dep ended at %v", second.StartSec, first.EndSec)
	}
}

func TestEngineMaskedMultiplyMatchesOracle(t *testing.T) {
	e := newTestEngine(t, 4, 2, true)
	v := linalg.RandomSparseDense(26, 22, 0.25, 31)
	w := linalg.RandomDense(26, 4, 32)
	h := linalg.RandomDense(4, 22, 33)
	src := `
input V 26 22 sparse
input W 26 4
input H 4 22
R = mask(V, W * H)
output R
`
	outs, m, _ := runProgram(t, e, src,
		plan.Config{Densities: map[string]float64{"V": 0.25}},
		map[string]*linalg.Dense{"V": v, "W": w, "H": h}, 8)
	prog, _ := lang.Parse(src)
	want, err := lang.Interpret(prog, map[string]*linalg.Dense{"V": v, "W": w, "H": h})
	if err != nil {
		t.Fatal(err)
	}
	if !outs["R"].AlmostEqual(want["R"], 1e-9) {
		t.Fatalf("masked product mismatch, maxdiff %g", outs["R"].MaxAbsDiff(want["R"]))
	}
	// Masked flops must be far below the dense product's.
	dense := 2 * int64(26) * 4 * 22
	if m.TotalFlops >= dense {
		t.Fatalf("masked flops %d not below dense %d", m.TotalFlops, dense)
	}
}

func TestEngineMaskedTransposedPattern(t *testing.T) {
	// mask(V', H' * W') — the pattern read through the transposed path.
	e := newTestEngine(t, 3, 2, true)
	v := linalg.RandomSparseDense(18, 12, 0.3, 41)
	w := linalg.RandomDense(18, 3, 42)
	h := linalg.RandomDense(3, 12, 43)
	src := `
input V 18 12 sparse
input W 18 3
input H 3 12
R = mask(V', H' * W')
output R
`
	outs, _, _ := runProgram(t, e, src,
		plan.Config{Densities: map[string]float64{"V": 0.3}},
		map[string]*linalg.Dense{"V": v, "W": w, "H": h}, 6)
	prog, _ := lang.Parse(src)
	want, err := lang.Interpret(prog, map[string]*linalg.Dense{"V": v, "W": w, "H": h})
	if err != nil {
		t.Fatal(err)
	}
	if !outs["R"].AlmostEqual(want["R"], 1e-9) {
		t.Fatalf("transposed masked product mismatch, maxdiff %g", outs["R"].MaxAbsDiff(want["R"]))
	}
}

func TestEngineMaskedOutputConsumedDownstream(t *testing.T) {
	// The sparse masked output feeds a later product.
	e := newTestEngine(t, 3, 2, true)
	v := linalg.RandomSparseDense(20, 16, 0.2, 51)
	w := linalg.RandomDense(20, 3, 52)
	h := linalg.RandomDense(3, 16, 53)
	src := `
input V 20 16 sparse
input W 20 3
input H 3 16
R = mask(V, W * H)
S = R * H'
output S
`
	outs, _, _ := runProgram(t, e, src,
		plan.Config{Densities: map[string]float64{"V": 0.2}},
		map[string]*linalg.Dense{"V": v, "W": w, "H": h}, 6)
	prog, _ := lang.Parse(src)
	want, err := lang.Interpret(prog, map[string]*linalg.Dense{"V": v, "W": w, "H": h})
	if err != nil {
		t.Fatal(err)
	}
	if !outs["S"].AlmostEqual(want["S"], 1e-9) {
		t.Fatalf("downstream of masked product mismatch, maxdiff %g", outs["S"].MaxAbsDiff(want["S"]))
	}
}

func TestEngineMaskedVirtualMode(t *testing.T) {
	prog, err := lang.Parse(`
input V 16384 16384 sparse
input W 16384 64
input H 64 16384
R = mask(V, W * H)
output R
`)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.Compile(prog, plan.Config{TileSize: 2048, Densities: map[string]float64{"V": 0.01}})
	if err != nil {
		t.Fatal(err)
	}
	pl.AutoSplit(16)
	e, err := New(Config{Cluster: testCluster(t, 8, 2), Seed: 4})
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
	// At 1% density the masked product must be drastically cheaper than
	// the dense one.
	denseFlops := 2 * int64(16384) * 64 * 16384
	if m.TotalFlops > denseFlops/20 {
		t.Fatalf("virtual masked flops %d not discounted (dense %d)", m.TotalFlops, denseFlops)
	}
}

// TestRunValidatesEverySplitFirst: an invalid split anywhere in a plan — on
// its last job, or a masked product's cut along K — fails the run before
// any task reaches the backend and before any file is written or deleted.
func TestRunValidatesEverySplitFirst(t *testing.T) {
	const src = `
input V 16 16 sparse
input W 16 8
input H 8 16
X = W * H
R = mask(V, W * H)
output X
output R
`
	for _, c := range []struct {
		name, want string
		split      func(last *plan.Job)
	}{
		{"last-job-past-grid", "exceeds tile grid", func(last *plan.Job) { last.Split.CI = last.ITiles() + 1 }},
		{"masked-k-split", "masked multiply cannot k-split", func(last *plan.Job) { last.Split.CK = 2 }},
	} {
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := plan.Compile(prog, plan.Config{TileSize: 4, Densities: map[string]float64{"V": 0.25}})
		if err != nil {
			t.Fatal(err)
		}
		pl.AutoSplit(8)
		last := pl.Jobs[len(pl.Jobs)-1]
		if len(pl.Jobs) != 2 || last.MaskLeaf == "" || last.KTiles() < 2 {
			t.Fatalf("want a product, then a masked product with a K to cut: %s", pl)
		}
		c.split(last)
		spy := &spyBackend{Backend: compute.NewSequential()}
		e, err := New(Config{Cluster: testCluster(t, 4, 2), Seed: 7, Backend: spy})
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range pl.Inputs {
			if err := e.LoadVirtual(in); err != nil {
				t.Fatal(err)
			}
		}
		files := e.FS().List("/")
		m, err := e.Run(pl)
		if err == nil || m != nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: Run = %v, %v; want no metrics and an error containing %q", c.name, m, err, c.want)
		}
		if spy.batch != 0 || spy.started.Load() != 0 {
			t.Fatalf("%s: %d tasks reached the backend before the bad split failed the run", c.name, spy.batch)
		}
		if after := e.FS().List("/"); !slices.Equal(after, files) {
			t.Fatalf("%s: the failed run changed the file system: %d files before, %d after", c.name, len(files), len(after))
		}
	}
}

func TestEngineRackTopologyAffectsTime(t *testing.T) {
	// The same workload on the same 16 nodes: an oversubscribed two-rack
	// topology (cross-rack penalty 3) must be slower than a flat network.
	run := func(rackSize int, penalty float64) float64 {
		prog, _ := lang.Parse(`
input A 16384 16384
input B 16384 16384
C = A .* B + A
output C
`)
		pl, err := plan.Compile(prog, plan.Config{TileSize: 2048})
		if err != nil {
			t.Fatal(err)
		}
		pl.AutoSplit(32)
		e, err := New(Config{
			Cluster:          testCluster(t, 16, 2),
			Seed:             6,
			RackSize:         rackSize,
			CrossRackPenalty: penalty,
		})
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
	flat := run(0, 1)
	racked := run(8, 3)
	if racked <= flat {
		t.Fatalf("cross-rack penalty should slow the run: flat %.1fs vs racked %.1fs", flat, racked)
	}
}

func TestEngineRackedRunRecordsRackReads(t *testing.T) {
	prog, _ := lang.Parse("input A 4096 4096\nB = A .* A\noutput B")
	pl, err := plan.Compile(prog, plan.Config{TileSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	pl.AutoSplit(16)
	e, err := New(Config{Cluster: testCluster(t, 8, 2), Seed: 8, RackSize: 4})
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
	var rack int64
	for _, tr := range m.Tasks {
		rack += tr.RackReadBytes
	}
	if rack == 0 {
		t.Fatal("racked run recorded no rack-local reads")
	}
}

func TestEngineSpeculationReducesTail(t *testing.T) {
	// Heavy-tailed noise produces stragglers; speculation must shorten
	// the makespan (or at worst match it) and record backup wins.
	run := func(speculate bool) (float64, int) {
		prog, _ := lang.Parse(`
input A 16384 16384
input B 16384 16384
C = A * B
output C
`)
		pl, err := plan.Compile(prog, plan.Config{TileSize: 2048})
		if err != nil {
			t.Fatal(err)
		}
		pl.AutoSplit(16)
		e, err := New(Config{
			Cluster:     testCluster(t, 8, 2),
			Seed:        12,
			NoiseFactor: 0.6, // violent stragglers
			Speculation: speculate,
		})
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
		return m.TotalSeconds, m.SpeculativeTasks
	}
	plain, zeroSpec := run(false)
	spec, wins := run(true)
	if zeroSpec != 0 {
		t.Fatal("speculation metrics nonzero with speculation off")
	}
	if wins == 0 {
		t.Fatal("no speculative wins under heavy noise")
	}
	if spec > plain {
		t.Fatalf("speculation made things worse: %.1fs vs %.1fs", spec, plain)
	}
}

func TestEngineSpeculationNoopWithoutNoise(t *testing.T) {
	prog, _ := lang.Parse("input A 4096 4096\nB = A .* A\noutput B")
	pl, err := plan.Compile(prog, plan.Config{TileSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	pl.AutoSplit(8)
	e, err := New(Config{Cluster: testCluster(t, 4, 2), Seed: 1, Speculation: true})
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
	if m.SpeculativeTasks != 0 {
		t.Fatalf("noise-free run speculated %d tasks", m.SpeculativeTasks)
	}
}

func TestUtilizationMetric(t *testing.T) {
	prog, _ := lang.Parse("input A 8192 8192\ninput B 8192 8192\nC = A * B\noutput C")
	pl, err := plan.Compile(prog, plan.Config{TileSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	cl := testCluster(t, 4, 2)
	pl.AutoSplit(cl.TotalSlots())
	e, err := New(Config{Cluster: cl, Seed: 2})
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
	u := m.Utilization(cl.TotalSlots())
	if u <= 0.3 || u > 1 {
		t.Fatalf("utilization %v implausible for a well-split matmul", u)
	}
	// The degenerate serial split wastes almost the whole cluster.
	pl2, _ := plan.Compile(prog, plan.Config{TileSize: 1024})
	pl2.Jobs[0].Split = plan.Split{CI: 1, CJ: 1, CK: 1}
	e2, _ := New(Config{Cluster: cl, Seed: 2})
	for _, in := range pl2.Inputs {
		if err := e2.LoadVirtual(in); err != nil {
			t.Fatal(err)
		}
	}
	m2, err := e2.Run(pl2)
	if err != nil {
		t.Fatal(err)
	}
	if u2 := m2.Utilization(cl.TotalSlots()); u2 >= u {
		t.Fatalf("serial split should waste the cluster: %v vs %v", u2, u)
	}
}

func TestTimelineCSV(t *testing.T) {
	prog, _ := lang.Parse("input A 4096 4096\nB = A .* A\noutput B")
	pl, err := plan.Compile(prog, plan.Config{TileSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	cl := testCluster(t, 2, 2)
	pl.AutoSplit(cl.TotalSlots())
	e, err := New(Config{Cluster: cl, Seed: 1})
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
	var sb strings.Builder
	if err := m.TimelineCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != len(m.Tasks)+1 {
		t.Fatalf("timeline rows: %d for %d tasks", len(lines), len(m.Tasks))
	}
	if !strings.HasPrefix(lines[0], "job,phase,task,node,slot,") {
		t.Fatalf("header: %s", lines[0])
	}
	// Slot attribution is within range and no slot runs two tasks at once.
	type span struct{ s, e float64 }
	bySlot := map[int][]span{}
	for _, tr := range m.Tasks {
		if tr.Slot < 0 || tr.Slot >= cl.TotalSlots() {
			t.Fatalf("slot out of range: %d", tr.Slot)
		}
		bySlot[tr.Slot] = append(bySlot[tr.Slot], span{tr.StartSec, tr.StartSec + tr.Seconds})
	}
	for slot, spans := range bySlot {
		for i := 0; i < len(spans); i++ {
			for k := i + 1; k < len(spans); k++ {
				a, b := spans[i], spans[k]
				if a.s < b.e-1e-9 && b.s < a.e-1e-9 {
					t.Fatalf("slot %d runs overlapping tasks: %+v %+v", slot, a, b)
				}
			}
		}
	}
}

func TestNodeCacheSpeedsIterativeReads(t *testing.T) {
	// Three GNMF iterations re-read V each iteration; with per-node
	// caches the later reads are free.
	src := `
input V 40000 20000 sparse
input W 40000 10
input H 10 20000
for i in 1:3 {
  H = H .* (W' * V) ./ ((W' * W) * H)
  W = W .* (V * H') ./ (W * (H * H'))
}
output W
`
	run := func(cacheFrac float64) (*RunMetrics, error) {
		prog, err := lang.Parse(src)
		if err != nil {
			return nil, err
		}
		pl, err := plan.Compile(prog, plan.Config{TileSize: 2048, Densities: map[string]float64{"V": 0.05}})
		if err != nil {
			return nil, err
		}
		cl := testCluster(t, 8, 2)
		pl.AutoSplit(cl.TotalSlots())
		e, err := New(Config{Cluster: cl, Seed: 21, CacheFraction: cacheFrac})
		if err != nil {
			return nil, err
		}
		for _, in := range pl.Inputs {
			if err := e.LoadVirtual(in); err != nil {
				return nil, err
			}
		}
		return e.Run(pl)
	}
	cold, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := run(0.6)
	if err != nil {
		t.Fatal(err)
	}
	if cold.TotalCacheBytes != 0 {
		t.Fatal("cache bytes recorded with caching off")
	}
	if warm.TotalCacheBytes == 0 {
		t.Fatal("no cache hits on an iterative workload")
	}
	if warm.TotalSeconds >= cold.TotalSeconds {
		t.Fatalf("caching did not help: %.1fs vs %.1fs", warm.TotalSeconds, cold.TotalSeconds)
	}
	if warm.TotalReadBytes >= cold.TotalReadBytes {
		t.Fatal("caching should reduce DFS read bytes")
	}
}

func TestNodeCacheCorrectness(t *testing.T) {
	// Materialized iterative run with caching: values must still match
	// the interpreter exactly (cached tiles are the same objects).
	src := `
input A 16 16
X = A
for i in 1:3 {
  X = X .* A + A
}
output X
`
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a := linalg.RandomDense(16, 16, 3)
	want, err := lang.Interpret(prog, map[string]*linalg.Dense{"A": a})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.Compile(prog, plan.Config{TileSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	cl := testCluster(t, 3, 2)
	pl.AutoSplit(cl.TotalSlots())
	e, err := New(Config{Cluster: cl, Materialize: true, Seed: 5, CacheFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadDense(pl.Inputs[0], a); err != nil {
		t.Fatal(err)
	}
	m, err := e.Run(pl)
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalCacheBytes == 0 {
		t.Fatal("expected cache hits (A re-read each iteration)")
	}
	got, err := e.FetchOutput(pl.Outputs["X"])
	if err != nil {
		t.Fatal(err)
	}
	if !got.AlmostEqual(want["X"], 1e-9) {
		t.Fatal("cached run diverges from interpreter")
	}
	// Re-running must clear caches and still be correct.
	if _, err := e.Run(pl); err != nil {
		t.Fatal(err)
	}
	got2, err := e.FetchOutput(pl.Outputs["X"])
	if err != nil {
		t.Fatal(err)
	}
	if !got2.AlmostEqual(want["X"], 1e-9) {
		t.Fatal("re-run with caches diverges")
	}
}

// TestNodeCacheForgetKeepsBytes: a forgotten entry — a dropped job's
// k-split partial, whose number the next job's partial takes — serves no
// read, but keeps its bytes and its place in the LRU until evicted, and
// evicting it leaves the newer entry at its address alone.
func TestNodeCacheForgetKeepsBytes(t *testing.T) {
	c := newNodeCache(100)
	in, part := dfs.TileAddr{Matrix: 0}, dfs.TileAddr{Matrix: 5}
	c.put(part, 40, false, false)
	c.forgetFrom(5)
	if _, ok := c.get(part); ok || c.used != 40 || c.lru.Len() != 1 {
		t.Fatalf("forgotten entry: hit %v, %d bytes in %d entries", ok, c.used, c.lru.Len())
	}
	c.put(part, 20, false, false) // the next job's partial
	c.put(in, 50, false, false)   // evicts the forgotten entry, the oldest
	if _, ok := c.get(part); !ok || c.used != 70 || c.lru.Len() != 2 {
		t.Fatalf("evicting the forgotten entry: newer entry hit %v, %d bytes in %d entries", ok, c.used, c.lru.Len())
	}
}

func TestNodeCacheLRUEviction(t *testing.T) {
	c := newNodeCache(100)
	tile := map[string]dfs.TileAddr{"a": {Matrix: 0}, "b": {Matrix: 0, TI: 1}, "c": {Matrix: 2, TJ: 1}, "huge": {Matrix: 7}}
	c.put(tile["a"], 40, false, false)
	c.put(tile["b"], 40, false, false)
	if _, ok := c.get(tile["a"]); !ok {
		t.Fatal("a should be cached")
	}
	// Inserting c (40) must evict the least recently used entry: b.
	c.put(tile["c"], 40, false, false)
	if _, ok := c.get(tile["b"]); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.get(tile["a"]); !ok {
		t.Fatal("a (recently used) should survive")
	}
	// Oversized entries are refused.
	c.put(tile["huge"], 1000, false, false)
	if _, ok := c.get(tile["huge"]); ok {
		t.Fatal("oversized entry should not be cached")
	}
}
