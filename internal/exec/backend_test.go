package exec

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"cumulon/internal/chaos"
	"cumulon/internal/cloud"
	"cumulon/internal/compute"
	"cumulon/internal/lang"
	"cumulon/internal/linalg"
	"cumulon/internal/obs"
	"cumulon/internal/plan"
)

// gnmfSrc is a full GNMF iteration: k-split products, fused epilogues,
// element-wise jobs and a masked multiply all in one plan, so a backend
// equivalence run exercises every task kind.
const gnmfSrc = `
input V 26 22 sparse
input W 26 4
input H 4 22
H = H .* (W' * V) ./ ((W' * W) * H)
W = W .* (V * H') ./ (W * (H * H'))
output W
output H
`

func gnmfData() map[string]*linalg.Dense {
	return map[string]*linalg.Dense{
		"V": linalg.RandomSparseDense(26, 22, 0.25, 31),
		"W": linalg.RandomDense(26, 4, 32).Map(func(x float64) float64 { return x + 0.5 }),
		"H": linalg.RandomDense(4, 22, 33).Map(func(x float64) float64 { return x + 0.5 }),
	}
}

// runGNMF executes the GNMF iteration materialized on a racked, cached,
// noisy, speculating cluster with the given backend (nil = engine default),
// optional chaos schedule and optional span recorder.
func runGNMF(t *testing.T, be compute.Backend, sched *chaos.Schedule, rec obs.Recorder) (map[string]*linalg.Dense, *RunMetrics) {
	t.Helper()
	e, err := New(Config{
		Cluster:       testCluster(t, 4, 2),
		Materialize:   true,
		Seed:          7,
		NoiseFactor:   0.08,
		RackSize:      2,
		CacheFraction: 0.4,
		Speculation:   true,
		Backend:       be,
		Chaos:         sched,
		Recorder:      rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	outs, m, _ := runProgram(t, e, gnmfSrc,
		plan.Config{Densities: map[string]float64{"V": 0.25}},
		gnmfData(), 8)
	return outs, m
}

// TestPoolBackendMatchesSequential is the backend-equivalence contract: the
// engine's default backend (the pool on the host's compute budget) and a
// worker pool asked for more than the budget must reproduce the sequential
// reference byte-for-byte — identical RunMetrics (virtual times, placement,
// byte accounting, task durations) and bitwise-identical output matrices.
// TestComputeBudgetInvariance widens this to every budget and observable.
func TestPoolBackendMatchesSequential(t *testing.T) {
	seqOuts, seqM := runGNMF(t, compute.NewSequential(), nil, nil)
	for _, be := range []compute.Backend{nil, compute.NewPool(8)} {
		poolOuts, poolM := runGNMF(t, be, nil, nil)
		if !reflect.DeepEqual(seqM, poolM) {
			t.Fatalf("RunMetrics diverge between backends:\nseq:  %+v\npool: %+v", seqM, poolM)
		}
		for name, sd := range seqOuts {
			pd := poolOuts[name]
			if pd == nil {
				t.Fatalf("pool run missing output %s", name)
			}
			if !reflect.DeepEqual(sd.Data, pd.Data) {
				t.Fatalf("output %s not bitwise identical between backends (maxdiff %g)",
					name, sd.MaxAbsDiff(pd))
			}
		}
	}

	// Both must also be right, not merely identical: compare against the
	// language interpreter oracle.
	prog, err := lang.Parse(gnmfSrc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := lang.Interpret(prog, gnmfData())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"W", "H"} {
		if !seqOuts[name].AlmostEqual(want[name], 1e-9) {
			t.Fatalf("output %s off oracle by %g", name, seqOuts[name].MaxAbsDiff(want[name]))
		}
	}
}

// TestPoolBackendMatchesSequentialUnderFaults repeats the equivalence check
// with a probabilistic chaos schedule: fault decisions are hashed from the
// task coordinates, so both backends see the same failures and retries
// replay pool-computed results on the retry node exactly as the sequential
// engine would.
func TestPoolBackendMatchesSequentialUnderFaults(t *testing.T) {
	sched := &chaos.Schedule{Seed: 5, TaskFaultProb: 0.12, ReadFaultProb: 0.04}
	seqOuts, seqM := runGNMF(t, compute.NewSequential(), sched, nil)
	poolOuts, poolM := runGNMF(t, compute.NewPool(8), sched, nil)

	if !reflect.DeepEqual(seqM, poolM) {
		t.Fatalf("RunMetrics diverge under faults:\nseq:  %+v\npool: %+v", seqM, poolM)
	}
	for name, sd := range seqOuts {
		if !reflect.DeepEqual(sd.Data, poolOuts[name].Data) {
			t.Fatalf("output %s diverges under faults (maxdiff %g)",
				name, sd.MaxAbsDiff(poolOuts[name]))
		}
	}
	if seqM.TotalRetries == 0 {
		t.Fatal("chaos schedule produced no retries; test exercises nothing")
	}
}

// TestBackendTraceExportsIdentical extends the backend-equivalence
// contract to observability: the sequential and worker-pool backends must
// produce byte-identical Chrome trace exports for the same seed — span
// recording happens only at replay, in scheduling order, so compute
// parallelism must leave no fingerprint (not even in the per-task kernel
// events, which workers accumulate privately).
func TestBackendTraceExportsIdentical(t *testing.T) {
	sched := &chaos.Schedule{Seed: 5, TaskFaultProb: 0.12, ReadFaultProb: 0.04}
	seqTr := obs.NewTrace()
	poolTr := obs.NewTrace()
	runGNMF(t, compute.NewSequential(), sched, seqTr)
	runGNMF(t, compute.NewPool(8), sched, poolTr)

	var seqOut, poolOut bytes.Buffer
	if err := seqTr.WriteChrome(&seqOut); err != nil {
		t.Fatal(err)
	}
	if err := poolTr.WriteChrome(&poolOut); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqOut.Bytes(), poolOut.Bytes()) {
		t.Fatalf("trace exports diverge between backends:\nseq %d bytes, pool %d bytes",
			seqOut.Len(), poolOut.Len())
	}
	if len(seqTr.SpansOf(obs.KindTask)) == 0 {
		t.Fatal("trace recorded no task spans; test exercises nothing")
	}
	if len(seqTr.Events()) == 0 {
		t.Fatal("trace recorded no kernel events; test exercises nothing")
	}
}

// TestConfigZeroValueOverrides covers CrossRackPenalty's default: 0
// selects 2 on a racked cluster and 1 on a flat one.
func TestConfigZeroValueOverrides(t *testing.T) {
	if d := (Config{}).withDefaults(); d.CrossRackPenalty != 1 {
		t.Fatalf("default CrossRackPenalty (no racks) = %g, want 1", d.CrossRackPenalty)
	}
	if r := (Config{RackSize: 2}).withDefaults(); r.CrossRackPenalty != 2 {
		t.Fatalf("default CrossRackPenalty (racked) = %g, want 2", r.CrossRackPenalty)
	}
}

// TestJobStartupPrecedesEachJob: every job's first task starts exactly
// cloud.JobStartupSec after the job is released, the overhead the
// simulator prices.
func TestJobStartupPrecedesEachJob(t *testing.T) {
	e, err := New(Config{Cluster: testCluster(t, 3, 2), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lang.Parse(`
input A 16 16
input B 16 16
C = A * B
D = C * B
output D
`)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.Compile(prog, plan.Config{TileSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	pl.AutoSplit(6)
	for _, in := range pl.Inputs {
		if err := e.LoadVirtual(in); err != nil {
			t.Fatal(err)
		}
	}
	m, err := e.Run(pl)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Jobs) < 2 {
		t.Fatalf("want a multi-job plan, got %d jobs", len(m.Jobs))
	}
	for _, j := range m.Jobs {
		first := math.Inf(1)
		for _, tr := range m.Tasks {
			if tr.JobID == j.JobID {
				first = math.Min(first, tr.StartSec)
			}
		}
		if want := j.StartSec + cloud.JobStartupSec; first != want {
			t.Fatalf("job %d released at %gs: first task at %gs, want %gs", j.JobID, j.StartSec, first, want)
		}
	}
}
