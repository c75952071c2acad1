package mapred

import (
	"reflect"
	"strings"
	"testing"

	"cumulon/internal/chaos"
	"cumulon/internal/cloud"
	"cumulon/internal/lang"
	"cumulon/internal/linalg"
	"cumulon/internal/testutil"
)

func cluster(t *testing.T, nodes, slots int) cloud.Cluster {
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

func parse(t *testing.T, src string) *lang.Program {
	t.Helper()
	p, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestOneJobPerOperator(t *testing.T) {
	e, err := New(Config{Cluster: cluster(t, 4, 2)})
	if err != nil {
		t.Fatal(err)
	}
	p := parse(t, `
input A 2000 2000
input B 2000 2000
C = (A .* B) + A
output C
`)
	m, _, err := e.Run(p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// .* and + are two separate jobs — no fusion in the baseline.
	if len(m.Jobs) != 2 {
		t.Fatalf("want 2 jobs, got %d: %+v", len(m.Jobs), m.Jobs)
	}
	for _, j := range m.Jobs {
		if j.ShuffleBytes == 0 {
			t.Fatalf("binary op must shuffle: %+v", j)
		}
	}
}

func TestTransposeIsAJob(t *testing.T) {
	e, _ := New(Config{Cluster: cluster(t, 4, 2)})
	p := parse(t, "input A 3000 1000\nB = A'\noutput B")
	m, _, err := e.Run(p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Jobs) != 1 || m.Jobs[0].Op != "transpose" {
		t.Fatalf("jobs: %+v", m.Jobs)
	}
}

func TestRMMvsCPMMShuffleTradeoff(t *testing.T) {
	// Square product with many blocks per side: RMM shuffle explodes with
	// the replication factor, CPMM stays linear — Auto must pick CPMM.
	p := parse(t, `
input A 20000 20000
input B 20000 20000
C = A * B
output C
`)
	run := func(s Strategy) *RunMetrics {
		e, _ := New(Config{Cluster: cluster(t, 8, 2), Strategy: s})
		m, _, err := e.Run(p, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	rmm, cpmm, auto := run(RMM), run(CPMM), run(Auto)
	if rmm.TotalShuffleBytes <= cpmm.TotalShuffleBytes {
		t.Fatalf("expected RMM to shuffle more here: %d vs %d", rmm.TotalShuffleBytes, cpmm.TotalShuffleBytes)
	}
	if auto.TotalSeconds > rmm.TotalSeconds && auto.TotalSeconds > cpmm.TotalSeconds {
		t.Fatalf("auto (%v) worse than both RMM (%v) and CPMM (%v)",
			auto.TotalSeconds, rmm.TotalSeconds, cpmm.TotalSeconds)
	}
	if !strings.Contains(auto.Jobs[0].Op, "CPMM") {
		t.Fatalf("auto should pick CPMM for square many-block product: %+v", auto.Jobs)
	}
}

func TestRMMWinsForSmallRHS(t *testing.T) {
	// A (tall) times a one-block B: RMM replicates B once per row block of
	// A but CPMM materializes K partials of C; RMM should win.
	p := parse(t, `
input A 20000 1000
input B 1000 500
C = A * B
output C
`)
	e, _ := New(Config{Cluster: cluster(t, 8, 2), Strategy: Auto})
	m, _, err := e.Run(p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.Jobs[0].Op, "RMM") {
		t.Fatalf("auto should pick RMM: %+v", m.Jobs)
	}
}

func TestMaterializedResultsMatchInterpreter(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := testutil.NewGen(seed)
		prog := g.Program("rand", 2, 3)
		data := g.InputData(seed * 3)
		want, err := lang.Interpret(prog, data)
		if err != nil {
			t.Fatal(err)
		}
		e, _ := New(Config{Cluster: cluster(t, 2, 2), Materialize: true})
		_, outs, err := e.Run(prog, nil, data)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for name, w := range want {
			if !outs[name].AlmostEqual(w, 1e-9) {
				t.Fatalf("seed %d output %s mismatch", seed, name)
			}
		}
	}
}

// TestMaterializedBudgetInvariance pins the baseline's arithmetic to the
// one compute budget: a product above the parallel GEMM gate (2^25 flops)
// and the element-wise operators around it give the same bits whether the
// budget is one token or four.
func TestMaterializedBudgetInvariance(t *testing.T) {
	prog := parse(t, `
input A 288 256
input B 256 256
C = sqrt(A * B) .* (A + A) - 0.5 * (B' * A')'
output C
`)
	data := map[string]*linalg.Dense{
		"A": linalg.RandomDense(288, 256, 1),
		"B": linalg.RandomDense(256, 256, 2),
	}
	run := func(budget int) []float64 {
		prev := linalg.SetParallelism(budget)
		t.Cleanup(func() { linalg.SetParallelism(prev) })
		e, err := New(Config{Cluster: cluster(t, 2, 2), Materialize: true})
		if err != nil {
			t.Fatal(err)
		}
		_, outs, err := e.Run(prog, nil, data)
		if err != nil {
			t.Fatal(err)
		}
		return outs["C"].Data
	}
	if one, four := run(1), run(4); !reflect.DeepEqual(one, four) {
		t.Fatal("materialized baseline output differs between compute budgets 1 and 4")
	}
}

func TestSparseDiscountsBytesAndFlops(t *testing.T) {
	src := `
input V 20000 20000 sparse
input H 20000 100
X = V * H
output X
`
	dense := parse(t, strings.Replace(src, " sparse", "", 1))
	sparse := parse(t, src)
	e, _ := New(Config{Cluster: cluster(t, 4, 2)})
	md, _, err := e.Run(dense, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ms, _, err := e.Run(sparse, map[string]float64{"V": 0.01}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ms.TotalFlops >= md.TotalFlops {
		t.Fatalf("sparse flops %d not below dense %d", ms.TotalFlops, md.TotalFlops)
	}
	if ms.TotalSeconds >= md.TotalSeconds {
		t.Fatalf("sparse run %v not faster than dense %v", ms.TotalSeconds, md.TotalSeconds)
	}
}

func TestMoreNodesFaster(t *testing.T) {
	p := parse(t, `
input A 10000 10000
input B 10000 10000
C = A * B
output C
`)
	run := func(nodes int) float64 {
		e, _ := New(Config{Cluster: cluster(t, nodes, 2)})
		m, _, err := e.Run(p, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return m.TotalSeconds
	}
	if t8, t2 := run(8), run(2); t8 >= t2 {
		t.Fatalf("8 nodes (%v) not faster than 2 (%v)", t8, t2)
	}
}

func TestValidatesPrograms(t *testing.T) {
	e, _ := New(Config{Cluster: cluster(t, 2, 2)})
	p := &lang.Program{
		Inputs:  []lang.Input{{Name: "A", Rows: 10, Cols: 20}},
		Stmts:   []lang.Assign{{Name: "B", Expr: lang.MatMul{L: lang.Var{Name: "A"}, R: lang.Var{Name: "A"}}}},
		Outputs: []string{"B"},
	}
	if _, _, err := e.Run(p, nil, nil); err == nil {
		t.Fatal("want validation error")
	}
}

func TestMissingInputWhenMaterializing(t *testing.T) {
	e, _ := New(Config{Cluster: cluster(t, 2, 2), Materialize: true})
	p := parse(t, "input A 4 4\nB = A\noutput B")
	if _, _, err := e.Run(p, nil, map[string]*linalg.Dense{}); err == nil {
		t.Fatal("want missing-input error")
	}
}

func TestDeterministicTiming(t *testing.T) {
	p := parse(t, "input A 5000 5000\nB = A .* A\noutput B")
	run := func() float64 {
		e, _ := New(Config{Cluster: cluster(t, 4, 2), Seed: 9, NoiseFactor: 0.1})
		m, _, err := e.Run(p, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return m.TotalSeconds
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic timing: %v vs %v", a, b)
	}
}

// TestChaosStretchesBaselineTimeline: the same chaos schedule the Cumulon
// engine honors must slow the baseline down — crashes shrink the slot pool
// for later jobs, injected task faults cost extra retry waves — without
// touching materialized results (intermediates are fully replicated).
func TestChaosStretchesBaselineTimeline(t *testing.T) {
	p := parse(t, `
input A 10000 10000
input B 10000 10000
C = A * B
D = C .* A
output D
`)
	run := func(sched *chaos.Schedule) *RunMetrics {
		e, err := New(Config{Cluster: cluster(t, 8, 2), Chaos: sched})
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := e.Run(p, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	clean := run(nil)
	faulty := run(&chaos.Schedule{Seed: 3, TaskFaultProb: 0.2})
	if faulty.TotalRetries == 0 {
		t.Fatal("chaos schedule produced no retries; test exercises nothing")
	}
	if faulty.TotalSeconds <= clean.TotalSeconds {
		t.Fatalf("faulty run %v not slower than clean %v", faulty.TotalSeconds, clean.TotalSeconds)
	}
	sum := 0
	for _, j := range faulty.Jobs {
		sum += j.Retries
	}
	if sum != faulty.TotalRetries {
		t.Fatalf("per-job retries sum %d != TotalRetries %d", sum, faulty.TotalRetries)
	}

	// A node lost before the program starts leaves fewer slots for every
	// job: strictly slower than the full cluster even with no task faults.
	crashed := run(&chaos.Schedule{Crashes: []chaos.NodeCrash{{Node: 2, At: 0}}})
	if crashed.TotalRetries != 0 {
		t.Fatalf("crash-only schedule recorded %d retries", crashed.TotalRetries)
	}
	if crashed.TotalSeconds <= clean.TotalSeconds {
		t.Fatalf("crashed run %v not slower than clean %v", crashed.TotalSeconds, clean.TotalSeconds)
	}

	// Determinism: same schedule, same timeline.
	if again := run(&chaos.Schedule{Seed: 3, TaskFaultProb: 0.2}); again.TotalSeconds != faulty.TotalSeconds {
		t.Fatalf("chaos timing nondeterministic: %v vs %v", again.TotalSeconds, faulty.TotalSeconds)
	}
}
