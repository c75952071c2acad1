package exec

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"cumulon/internal/chaos"
	"cumulon/internal/compute"
	"cumulon/internal/lang"
	"cumulon/internal/linalg"
	"cumulon/internal/obs"
	"cumulon/internal/plan"
	"cumulon/internal/store"
)

// poolCase is one program of the poisoned-pool differential: together the
// cases cover every way a task obtains a pooled buffer — decoded dense
// inputs, densified sparse ones, cached sparse ones, materialized
// transposes, accumulators (plain, k-split partials and their aggregation,
// epilogue-fused), pipeline destinations — and the retry path that replays
// a computed Result.
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
			data: gnmfData(),
		},
		{
			name:  "gnmf-chaos-retry",
			src:   gnmfSrc,
			cfg:   plan.Config{Densities: map[string]float64{"V": 0.25}},
			data:  gnmfData(),
			sched: &chaos.Schedule{Seed: 5, TaskFaultProb: 0.12, ReadFaultProb: 0.04},
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
func (c poolCase) run(t *testing.T, be compute.Backend) (map[string]*linalg.Dense, []byte, *RunMetrics) {
	t.Helper()
	tr := obs.NewTrace()
	e, err := New(Config{
		Cluster: testCluster(t, 4, 2), Materialize: true, Seed: 7, NoiseFactor: 0.08,
		RackSize: 2, CacheFraction: 0.4, Speculation: true,
		Backend: be, Chaos: c.sched, Recorder: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	outs, m, pl := runProgram(t, e, c.src, c.cfg, c.data, 8)
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
// fans out across the parallel blocked driver, and every released buffer
// is poisoned while other workers are still computing.
func TestPoisonedPoolParallelKernels(t *testing.T) {
	defer compute.SetPoolMode(compute.PoolReuse)
	defer linalg.SetParallelism(linalg.SetParallelism(4))
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

// TestCorruptTileFailsTaskThroughPooledDecode: the checksum and the CSR
// structure are still verified on every decode into a pooled buffer, so a
// flipped payload byte in the DFS fails the task that reads the tile with
// store.ErrCorrupt instead of feeding garbage to a kernel.
func TestCorruptTileFailsTaskThroughPooledDecode(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		e := newTestEngine(t, 4, 2, true)
		src := "input V 12 12\ninput W 12 4\nX = V * W\noutput X\n"
		cfg := plan.Config{TileSize: 4}
		if sparse {
			src = "input V 12 12 sparse\ninput W 12 4\nX = V * W\noutput X\n"
			cfg.Densities = map[string]float64{"V": 0.5}
		}
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := plan.Compile(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pl.AutoSplit(8)
		data := map[string]*linalg.Dense{"V": linalg.RandomSparseDense(12, 12, 0.5, 1), "W": linalg.RandomDense(12, 4, 2)}
		for _, in := range pl.Inputs {
			if err := e.LoadDense(in, data[in.Name]); err != nil {
				t.Fatal(err)
			}
		}
		// Stored payloads are immutable, so corruption is a new file.
		path := store.MatrixPrefix("V") + "1_1"
		raw, err := e.FS().Peek(path)
		if err != nil {
			t.Fatal(err)
		}
		bad := append([]byte(nil), raw...)
		bad[len(bad)/2] ^= 0x40
		e.FS().Delete(path)
		if err := e.FS().Write(path, bad, -1); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(pl); !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("sparse=%v: run over a corrupted tile returned %v, want store.ErrCorrupt", sparse, err)
		}
	}
}

// TestRetryRewritesOwnedPayloads: the DFS takes ownership of Op.Data, and a
// Result is replayed as is when its attempt fails half-way: the partial
// writes are rolled back and the retry hands the same slices to the DFS
// again. That is safe because stored payloads are immutable — asserted
// here by failing the second write of a two-write trace, retrying, and
// finding both files holding the trace's exact bytes, unchanged.
func TestRetryRewritesOwnedPayloads(t *testing.T) {
	e := newTestEngine(t, 4, 2, true)
	first := store.EncodeTile(linalg.RandomDense(4, 4, 1).TileAt(0, 0, 4))
	second := store.EncodeTile(linalg.RandomDense(4, 4, 2).TileAt(0, 0, 4))
	wantFirst, wantSecond := append([]byte(nil), first...), append([]byte(nil), second...)
	res := &compute.Result{Ops: []compute.Op{
		{Write: true, Path: "/matrix/X/0_0", Data: first},
		{Write: true, Path: "/matrix/X/0_1", Data: second},
	}}
	if err := e.FS().Write("/matrix/X/0_1", []byte("in the way"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.applyResult(res, 1); err == nil {
		t.Fatal("replay over an existing path succeeded")
	}
	if e.FS().Exists("/matrix/X/0_0") {
		t.Fatal("the failed attempt's partial write was not rolled back")
	}
	e.FS().Delete("/matrix/X/0_1")
	if _, err := e.applyResult(res, 2); err != nil {
		t.Fatalf("retry: %v", err)
	}
	for path, want := range map[string][]byte{"/matrix/X/0_0": wantFirst, "/matrix/X/0_1": wantSecond} {
		got, err := e.FS().Peek(path)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after retry: %v, bytes equal %v", path, err, bytes.Equal(got, want))
		}
	}
	if !bytes.Equal(first, wantFirst) || !bytes.Equal(second, wantSecond) {
		t.Fatal("replaying a Result modified its payloads")
	}
}
