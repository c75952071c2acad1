package exec_test

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"cumulon/internal/chaos"
	"cumulon/internal/ckpt"
	"cumulon/internal/compute"
	"cumulon/internal/core"
	"cumulon/internal/exec"
	"cumulon/internal/lang"
	"cumulon/internal/linalg"
	"cumulon/internal/obs"
	"cumulon/internal/plan"
	"cumulon/internal/workloads"
)

// manifestLog is a checkpoint store that keeps the encoded manifest of
// every checkpoint saved and never resumes.
type manifestLog struct{ saved [][]byte }

func (l *manifestLog) Save(c *ckpt.Checkpoint) error {
	raw, err := ckpt.Encode(c.Manifest)
	l.saved = append(l.saved, raw)
	return err
}

func (l *manifestLog) Latest(string, string) (*ckpt.Checkpoint, error) { return nil, nil }

// runObservables is everything a materialized run lets a caller see.
type runObservables struct {
	metrics   *exec.RunMetrics
	trace     []byte
	outs      map[string]*linalg.Dense
	manifests [][]byte
	masked    int // masked multiply jobs in the plan
}

// observeRun runs wl as runIterative does — racked, cached, noisy,
// speculating, checkpointing at every boundary — under the given compute
// configuration: Workers and Backend as exec.Config takes them.
func observeRun(t *testing.T, wl workloads.Workload, workers int, be compute.Backend, sched *chaos.Schedule) runObservables {
	t.Helper()
	tr, log := obs.NewTrace(), &manifestLog{}
	e, err := exec.New(exec.Config{
		Cluster: faultCluster(t, 4, 2), Materialize: true, Seed: 7, NoiseFactor: 0.08,
		RackSize: 2, CacheFraction: 0.4, Speculation: true,
		Workers: workers, Backend: be, Chaos: sched, Recorder: tr,
		CheckpointEvery: 1, CheckpointStore: log,
	})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.Compile(wl.Prog, plan.Config{TileSize: 8, Densities: wl.Densities})
	if err != nil {
		t.Fatal(err)
	}
	pl.AutoSplit(8)
	data := core.RandomInputs(wl.Prog, plan.Config{Densities: wl.Densities}, 5)
	for _, in := range pl.Inputs {
		if err := e.LoadDense(in, data[in.Name]); err != nil {
			t.Fatal(err)
		}
	}
	o := runObservables{outs: map[string]*linalg.Dense{}}
	if o.metrics, err = e.Run(pl); err != nil {
		t.Fatal(err)
	}
	for name, meta := range pl.Outputs {
		if o.outs[name], err = e.FetchOutput(meta); err != nil {
			t.Fatal(err)
		}
	}
	var trace bytes.Buffer
	if err := tr.WriteChrome(&trace); err != nil {
		t.Fatal(err)
	}
	o.trace, o.manifests = trace.Bytes(), log.saved
	for _, j := range pl.Jobs {
		if j.MaskLeaf != "" {
			o.masked++
		}
	}
	return o
}

// maskedGNMFSrc is a GNMF whose two products against V are restricted to V's
// pattern, as the KL-divergence variant's quotient needs them: masked
// multiplies with plain, transposed and composite operands, a sparse
// intermediate feeding later products, and a checkpoint per iteration.
const maskedGNMFSrc = `
input V 20 16 sparse
input W 20 3
input H 3 16
for i in 1:2 {
  R = mask(V, W * H)
  H = H .* (W' * R) ./ ((W' * W) * H)
  S = mask(V', H' * (W .* W)')
  W = W .* (S' * H') ./ (W * (H * H'))
  checkpoint
}
output W
output H
`

// TestComputeBudgetInvariance is the determinism contract of the default
// compute path: the zero-value configuration (the pool on the host's
// budget), Workers: 1, an explicit pool, and budgets of 1, 2, 4 and 8
// tokens all reproduce the sequential backend byte for byte — RunMetrics,
// Chrome trace, outputs at the bit level and every checkpoint manifest
// (block placement included) — on a dense multiply, the sparse GNMF and
// a GNMF with masked multiplies, fault-free and under a fault schedule
// with retries. Only when a tile is computed changes, never what the
// scheduler replays. CI runs this under -race.
func TestComputeBudgetInvariance(t *testing.T) {
	masked, err := lang.Parse(maskedGNMFSrc)
	if err != nil {
		t.Fatal(err)
	}
	masked.Name = "gnmf-masked"
	for _, wl := range []workloads.Workload{
		workloads.MatMul(40, 48, 36),
		workloads.GNMF(26, 22, 4, 2, 0.25),
		{Name: masked.Name, Prog: masked, Densities: map[string]float64{"V": 0.3}},
	} {
		for _, sched := range []*chaos.Schedule{nil, {Seed: 5, TaskFaultProb: 0.12, ReadFaultProb: 0.04}} {
			name := wl.Name
			if sched != nil {
				name += "/chaos"
			}
			t.Run(name, func(t *testing.T) {
				want := observeRun(t, wl, 0, compute.NewSequential(), sched)
				if sched != nil && want.metrics.TotalRetries == 0 {
					t.Fatal("the fault schedule produced no retries; the case exercises nothing")
				}
				if wl.Prog.Boundaries != nil && len(want.manifests) == 0 {
					t.Fatal("an iterative workload wrote no checkpoint; the case compares no manifest")
				}
				if wl.Prog == masked && want.masked < 3 {
					t.Fatalf("the masked GNMF plan has %d masked multiplies, want at least 3", want.masked)
				}
				check := func(label string, workers int, be compute.Backend) {
					t.Helper()
					got := observeRun(t, wl, workers, be, sched)
					if !reflect.DeepEqual(got.metrics, want.metrics) {
						t.Errorf("%s: RunMetrics differ from the sequential backend's", label)
					}
					if !bytes.Equal(got.trace, want.trace) {
						t.Errorf("%s: Chrome trace differs from the sequential backend's", label)
					}
					if !reflect.DeepEqual(got.manifests, want.manifests) {
						t.Errorf("%s: checkpoint manifests differ from the sequential backend's", label)
					}
					for name, w := range want.outs {
						if at := firstBitDiff(w, got.outs[name]); at >= 0 {
							t.Errorf("%s: output %s differs at element %d: %x vs %x", label, name, at,
								math.Float64bits(w.Data[at]), math.Float64bits(got.outs[name].Data[at]))
						}
					}
				}
				check("zero-value config", 0, nil)
				check("Workers: 1", 1, nil)
				check("NewPool(8)", 0, compute.NewPool(8))
				for _, budget := range []int{1, 2, 4, 8} {
					prev := linalg.SetParallelism(budget)
					check(fmt.Sprintf("budget %d", budget), 0, nil)
					linalg.SetParallelism(prev)
				}
			})
		}
	}
}

// TestNewRejectsNegativeWorkers: a negative width is an error, not a silent
// fall back to the sequential backend.
func TestNewRejectsNegativeWorkers(t *testing.T) {
	for _, materialize := range []bool{false, true} {
		if _, err := exec.New(exec.Config{Cluster: faultCluster(t, 2, 2), Materialize: materialize, Workers: -1}); err == nil {
			t.Fatalf("exec.New accepted Workers: -1 (materialize=%v)", materialize)
		}
	}
}
