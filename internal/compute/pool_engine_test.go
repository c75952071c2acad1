package compute_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"cumulon/internal/chaos"
	"cumulon/internal/cloud"
	"cumulon/internal/compute"
	"cumulon/internal/core"
	"cumulon/internal/exec"
	"cumulon/internal/lang"
	"cumulon/internal/linalg"
	"cumulon/internal/obs"
	"cumulon/internal/plan"
	"cumulon/internal/workloads"
)

// These tests set the pool mode, which only this package's export_test.go
// can reach, and observe it through whole engine runs, for which they drive
// package exec through its public API.

// gnmfSrc is a full GNMF iteration: k-split products, fused epilogues and
// element-wise jobs over a sparse operand, ragged at tile size 4.
const gnmfSrc = `
input V 26 22 sparse
input W 26 4
input H 4 22
H = H .* (W' * V) ./ ((W' * W) * H)
W = W .* (V * H') ./ (W * (H * H'))
output W
output H
`

// poolCase is one program of the poisoned-pool differential: together the
// cases cover every way a task obtains a pooled buffer — decoded dense
// inputs, densified sparse ones, cached sparse ones, materialized
// transposes, accumulators (plain, transposed, k-split partials and their
// aggregation, epilogue-fused), pipeline destinations — and the retry path
// that replays a computed Result.
type poolCase struct {
	name  string
	src   string
	cfg   plan.Config
	data  map[string]*linalg.Dense
	sched *chaos.Schedule
	// wantKSplit / wantMasked assert the plan really has the job shape the
	// case is named for, so a planner change cannot hollow the test out.
	wantKSplit, wantMasked bool
}

func poolCases() []poolCase {
	pos := func(d *linalg.Dense) *linalg.Dense { return d.Map(func(x float64) float64 { return x + 0.5 }) }
	gnmf := map[string]*linalg.Dense{
		"V": linalg.RandomSparseDense(26, 22, 0.25, 31),
		"W": pos(linalg.RandomDense(26, 4, 32)),
		"H": pos(linalg.RandomDense(4, 22, 33)),
	}
	kl := workloads.GNMFKL(20, 16, 3, 2, 0.3)
	return []poolCase{
		{
			name: "dense-ksplit",
			src:  "input A 8 64\ninput B 64 8\nC = A * B\noutput C\n",
			data: map[string]*linalg.Dense{"A": linalg.RandomDense(8, 64, 1), "B": linalg.RandomDense(64, 8, 2)},
			// 2x2 output tiles on 8 slots: parallelism must come from K.
			wantKSplit: true,
		},
		{
			name: "double-transposed",
			src:  "input A 11 19\ninput B 7 11\nX = A' * B'\nY = X + X\noutput Y\n",
			data: map[string]*linalg.Dense{"A": linalg.RandomDense(11, 19, 3), "B": linalg.RandomDense(7, 11, 4)},
		},
		{
			name: "gnmf",
			src:  gnmfSrc,
			cfg:  plan.Config{Densities: map[string]float64{"V": 0.25}},
			data: gnmf,
		},
		{
			// The quotient V ./ (W * H) that both factor updates read.
			name: "gnmf-kl",
			src:  kl.Prog.String(),
			cfg:  plan.Config{Densities: kl.Densities},
			data: core.RandomInputs(kl.Prog, plan.Config{Densities: kl.Densities}, 34),
		},
		{
			name:  "gnmf-chaos-retry",
			src:   gnmfSrc,
			cfg:   plan.Config{Densities: map[string]float64{"V": 0.25}},
			data:  gnmf,
			sched: &chaos.Schedule{Seed: 5, TaskFaultProb: 0.12, ReadFaultProb: 0.04},
		},
		{
			// Sparse right operands: the pooled transposed accumulator,
			// the per-step transposed copy of an evaluated left tile, and
			// a CSR tile that an epilogue then expands densely.
			name: "sparse-right",
			src: `
input S 13 13 sparse
input A 9 13
input D 13 13
X = (A + A) * S'
Y = S .* (D * S) ./ (S + D)
output X
output Y
`,
			cfg: plan.Config{Densities: map[string]float64{"S": 0.3}},
			data: map[string]*linalg.Dense{
				"S": linalg.RandomSparseDense(13, 13, 0.3, 81),
				"A": pos(linalg.RandomDense(9, 13, 82)),
				"D": pos(linalg.RandomDense(13, 13, 84)),
			},
		},
		{
			name: "masked-transposed",
			src: `
input V 18 12 sparse
input W 18 3
input H 3 12
R = mask(V', H' * W')
S = R * W
T = mask(V, W * H)
output S
output T
`,
			cfg: plan.Config{Densities: map[string]float64{"V": 0.3}},
			data: map[string]*linalg.Dense{
				"V": linalg.RandomSparseDense(18, 12, 0.3, 41),
				"W": pos(linalg.RandomDense(18, 3, 42)),
				"H": pos(linalg.RandomDense(3, 12, 43)),
			},
			wantMasked: true,
		},
	}
}

// run executes the case on a racked, cached, noisy, speculating cluster and
// returns the outputs, the Chrome trace export and the run metrics.
func (c poolCase) run(t *testing.T, be compute.Backend) (map[string]*linalg.Dense, []byte, *exec.RunMetrics) {
	t.Helper()
	mt, err := cloud.TypeByName("m1.large")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cloud.NewCluster(mt, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace()
	e, err := exec.New(exec.Config{
		Cluster: cl, Materialize: true, Seed: 7, NoiseFactor: 0.08,
		RackSize: 2, CacheFraction: 0.4, Speculation: true,
		Backend: be, Chaos: c.sched, Recorder: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lang.Parse(c.src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := c.cfg
	if cfg.TileSize == 0 {
		cfg.TileSize = 4
	}
	pl, err := plan.Compile(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl.AutoSplit(8)
	for _, in := range pl.Inputs {
		if err := e.LoadDense(in, c.data[in.Name]); err != nil {
			t.Fatal(err)
		}
	}
	m, err := e.Run(pl)
	if err != nil {
		t.Fatal(err)
	}
	outs := map[string]*linalg.Dense{}
	for name, meta := range pl.Outputs {
		if outs[name], err = e.FetchOutput(meta); err != nil {
			t.Fatal(err)
		}
	}
	var ksplit, masked bool
	for _, j := range pl.Jobs {
		ksplit = ksplit || j.Split.CK > 1
		masked = masked || j.MaskLeaf != ""
	}
	if c.wantKSplit && !ksplit {
		t.Fatalf("%s: no k-split job in the plan; the case exercises nothing", c.name)
	}
	if c.wantMasked && !masked {
		t.Fatalf("%s: no masked job in the plan; the case exercises nothing", c.name)
	}
	var trace bytes.Buffer
	if err := tr.WriteChrome(&trace); err != nil {
		t.Fatal(err)
	}
	return outs, trace.Bytes(), m
}

// TestPoisonedPoolDifferential is the proof that recycling tile buffers is
// unobservable. The oracle runs with the pool off (every buffer fresh from
// the allocator, the sequential backend); the runs under test recycle
// buffers that were filled with NaN on release, on both backends. Any
// buffer a task reads before fully overwriting or zeroing it, and any
// Result or DFS payload that still aliases pooled memory when it is
// released, turns into NaNs (or an out-of-range CSR index) in the outputs,
// so bitwise-equal outputs and byte-equal traces rule both out. CI runs
// this under -race, where the pool backend's workers share the pools.
func TestPoisonedPoolDifferential(t *testing.T) {
	defer compute.SetPoolMode(compute.PoolReuse)
	for _, c := range poolCases() {
		compute.SetPoolMode(compute.PoolOff)
		wantOuts, wantTrace, wantM := c.run(t, compute.NewSequential())
		if c.sched != nil && wantM.TotalRetries == 0 {
			t.Fatalf("%s: chaos schedule produced no retries; the case exercises nothing", c.name)
		}
		prog, err := lang.Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := lang.Interpret(prog, c.data)
		if err != nil {
			t.Fatal(err)
		}
		for name, d := range wantOuts {
			if !d.AlmostEqual(ref[name], 1e-9) {
				t.Fatalf("%s: un-pooled oracle output %s off the interpreter by %g", c.name, name, d.MaxAbsDiff(ref[name]))
			}
		}

		compute.SetPoolMode(compute.PoolPoison)
		for _, bk := range []struct {
			name string
			be   compute.Backend
		}{{"sequential", compute.NewSequential()}, {"pool8", compute.NewPool(8)}} {
			// Twice: the second run starts on pools full of poison.
			for round := 0; round < 2; round++ {
				outs, trace, m := c.run(t, bk.be)
				for name, want := range wantOuts {
					if !reflect.DeepEqual(outs[name].Data, want.Data) {
						t.Errorf("%s/%s round %d: output %s differs from the un-pooled oracle (maxdiff %g)",
							c.name, bk.name, round, name, outs[name].MaxAbsDiff(want))
					}
				}
				if !bytes.Equal(trace, wantTrace) {
					t.Errorf("%s/%s round %d: Chrome trace differs from the un-pooled oracle", c.name, bk.name, round)
				}
				if !reflect.DeepEqual(m, wantM) {
					t.Errorf("%s/%s round %d: RunMetrics differ from the un-pooled oracle", c.name, bk.name, round)
				}
			}
		}
	}
}

// TestPoisonedPoolParallelKernels repeats the differential where the
// sharing is widest: pool-backend workers decode the same DFS tile (one
// read-only view of one stored block) at the same time, each task's GEMM
// fans out across the parallel blocked driver — four tasks in flight on a
// compute budget of eight leave it tokens to borrow — and every released
// buffer is poisoned while other workers are still computing.
func TestPoisonedPoolParallelKernels(t *testing.T) {
	defer compute.SetPoolMode(compute.PoolReuse)
	defer linalg.SetParallelism(linalg.SetParallelism(8))
	const n = 264 // 2·264³ flops per tile product: above the fan-out gate
	c := poolCase{
		name: "parallel-kernels",
		src:  "input A 528 264\ninput B 264 528\nC = A * B\noutput C\n",
		cfg:  plan.Config{TileSize: n},
		data: map[string]*linalg.Dense{"A": linalg.RandomDense(2*n, n, 5), "B": linalg.RandomDense(n, 2*n, 6)},
	}
	compute.SetPoolMode(compute.PoolOff)
	wantOuts, wantTrace, _ := c.run(t, compute.NewSequential())
	compute.SetPoolMode(compute.PoolPoison)
	for round := 0; round < 2; round++ {
		outs, trace, _ := c.run(t, compute.NewPool(4))
		if !reflect.DeepEqual(outs["C"].Data, wantOuts["C"].Data) {
			t.Fatalf("round %d: output differs from the un-pooled oracle (maxdiff %g)", round, outs["C"].MaxAbsDiff(wantOuts["C"]))
		}
		if !bytes.Equal(trace, wantTrace) {
			t.Fatalf("round %d: Chrome trace differs from the un-pooled oracle", round)
		}
	}
}

// TestVirtualRunsShareReadSetPool is cumulond's steady state: several
// engines run virtual jobs at the same time, each on a pool backend whose
// workers take their tasks' read sets from the one process-wide pool and
// poison them on release while the other engines are mid-task. Every run
// must report the metrics and the trace of a run made alone with the pools
// off. CI runs it under -race with -count=10.
func TestVirtualRunsShareReadSetPool(t *testing.T) {
	defer compute.SetPoolMode(compute.PoolReuse)
	defer linalg.SetParallelism(linalg.SetParallelism(4))
	mt, err := cloud.TypeByName("m1.large")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cloud.NewCluster(mt, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lang.Parse(gnmfSrc)
	if err != nil {
		t.Fatal(err)
	}
	run := func(be compute.Backend) ([]byte, *exec.RunMetrics, error) {
		pl, err := plan.Compile(prog, plan.Config{TileSize: 4, Densities: map[string]float64{"V": 0.25}})
		if err != nil {
			return nil, nil, err
		}
		pl.AutoSplit(cl.TotalSlots())
		tr := obs.NewTrace()
		e, err := exec.New(exec.Config{Cluster: cl, Seed: 7, RackSize: 2, CacheFraction: 0.4, Backend: be, Recorder: tr})
		if err != nil {
			return nil, nil, err
		}
		for _, in := range pl.Inputs {
			if err := e.LoadVirtual(in); err != nil {
				return nil, nil, err
			}
		}
		m, err := e.Run(pl)
		if err != nil {
			return nil, nil, err
		}
		var trace bytes.Buffer
		err = tr.WriteChrome(&trace)
		return trace.Bytes(), m, err
	}
	compute.SetPoolMode(compute.PoolOff)
	wantTrace, wantM, err := run(compute.NewSequential())
	if err != nil {
		t.Fatal(err)
	}
	compute.SetPoolMode(compute.PoolPoison)
	const engines, rounds = 4, 3
	errs := make(chan error, engines)
	for g := 0; g < engines; g++ {
		go func() {
			for round := 0; round < rounds; round++ {
				trace, m, err := run(compute.NewPool(3))
				switch {
				case err != nil:
					errs <- err
					return
				case !bytes.Equal(trace, wantTrace):
					errs <- fmt.Errorf("engine %d round %d: Chrome trace differs from the run made alone", g, round)
					return
				case !reflect.DeepEqual(m, wantM):
					errs <- fmt.Errorf("engine %d round %d: RunMetrics differ from the run made alone", g, round)
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < engines; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
