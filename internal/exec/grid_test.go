package exec

import (
	"runtime"
	"testing"

	"cumulon/internal/ckpt"
	"cumulon/internal/dfs"
	"cumulon/internal/lang"
	"cumulon/internal/plan"
)

// gnmfLoopSrc is gnmfSrc iterated three times with a checkpoint marker at
// every iteration's end.
const gnmfLoopSrc = `
input V 26 22 sparse
input W 26 4
input H 4 22
for i in 1:3 {
  H = H .* (W' * V) ./ ((W' * W) * H)
  W = W .* (V * H') ./ (W * (H * H'))
  checkpoint
}
output W
output H
`

// offGridOps returns how many allocations dfs has made resolving a tile
// address off its matrix's declared grid (dfs.FS.offGrid) since the process
// began, as the memory profile saw them once two collections publish the
// latest. At runtime.MemProfileRate 1 it sees each one, and every operation
// on such an address allocates there, rendering the path of the ordinary
// file it stands for: a write into a matrix never declared, or past its
// grid, above all.
func offGridOps() int64 {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	for {
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	var total int64
	for i := range recs[:n] {
		frames := runtime.CallersFrames(recs[i].Stack())
		for {
			f, more := frames.Next()
			if f.Function == "cumulon/internal/dfs.(*FS).offGrid" {
				total += recs[i].AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return total
}

// checkBookkeeping requires run to reach no tile off its matrix's grid —
// the engine declares every matrix it writes, inputs included, at its grid
// — and its task records to be allocated once, at their final length.
func checkBookkeeping(t *testing.T, what string, run func() *RunMetrics) {
	t.Helper()
	before := offGridOps()
	m := run()
	if n := offGridOps() - before; n != 0 {
		t.Errorf("%s: %d tile operations fell off their matrices' grids", what, n)
	}
	if len(m.Jobs) < 2 || len(m.Tasks) == 0 || m.TotalRetries != 0 || m.SpeculativeTasks != 0 {
		t.Fatalf("%s: %d jobs, %d tasks, %d retries, %d speculative: not a multi-job run without retries or speculation",
			what, len(m.Jobs), len(m.Tasks), m.TotalRetries, m.SpeculativeTasks)
	}
	if cap(m.Tasks) != len(m.Tasks) {
		t.Errorf("%s: %d task records in an array of %d", what, len(m.Tasks), cap(m.Tasks))
	}
}

// TestRunsDeclareTheirGrids holds four runs to checkBookkeeping: a virtual
// paper-scale GNMF whose products k-split, a materialized sparse GNMF, a
// checkpointed iterative GNMF, and a run resumed from its last checkpoint,
// whose restored tiles are placed by address. It first requires the memory
// profile to see a tile write into an undeclared matrix fall off the grid.
func TestRunsDeclareTheirGrids(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := offGridOps()
	b := dfs.New(dfs.DefaultConfig(2)).Batch()
	b.Bind(0, "probe")
	err := b.Write(dfs.TileAddr{Matrix: 0}, []byte{1}, 0)
	b.Done()
	if err != nil {
		t.Fatal(err)
	}
	if offGridOps() == before {
		t.Fatal("the memory profile saw no tile write into an undeclared matrix fall off the grid")
	}
	t.Run("virtual k-split", func(t *testing.T) {
		prog, err := lang.Parse(gnmfBenchSrc)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := plan.Compile(prog, gnmfBenchCfg)
		if err != nil {
			t.Fatal(err)
		}
		pl.AutoSplit(8)
		split := false
		for _, j := range pl.Jobs {
			split = split || j.Split.CK > 1
		}
		if !split {
			t.Fatal("no job k-splits; the run writes no partials")
		}
		e, err := New(Config{Cluster: testCluster(t, 4, 2), Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		checkBookkeeping(t, "virtual GNMF", func() *RunMetrics {
			for _, in := range pl.Inputs {
				if err := e.LoadVirtual(in); err != nil {
					t.Fatal(err)
				}
			}
			m, err := e.Run(pl)
			if err != nil {
				t.Fatal(err)
			}
			return m
		})
	})
	t.Run("materialized sparse", func(t *testing.T) {
		e := newTestEngine(t, 4, 2, true)
		checkBookkeeping(t, "materialized GNMF", func() *RunMetrics {
			_, m, _ := runProgram(t, e, gnmfSrc, plan.Config{Densities: map[string]float64{"V": 0.25}}, gnmfData(), 8)
			return m
		})
	})
	t.Run("checkpoint and resume", func(t *testing.T) {
		cs := ckpt.NewMemStore()
		run := func(resume bool) func() *RunMetrics {
			e, err := New(Config{
				Cluster: testCluster(t, 4, 2), Materialize: true, Seed: 7, NoiseFactor: 0.05,
				CheckpointEvery: 1, CheckpointStore: cs, Resume: resume,
			})
			if err != nil {
				t.Fatal(err)
			}
			return func() *RunMetrics {
				_, m, _ := runProgram(t, e, gnmfLoopSrc, plan.Config{Densities: map[string]float64{"V": 0.25}}, gnmfData(), 8)
				if !resume && m.Checkpoints == 0 {
					t.Fatal("the run wrote no checkpoint")
				}
				if resume && (m.ResumedFromStmt == 0 || m.ResumeSkippedJobs == 0) {
					t.Fatal("the run did not resume from a checkpoint")
				}
				return m
			}
		}
		checkBookkeeping(t, "checkpointed GNMF", run(false))
		checkBookkeeping(t, "resumed GNMF", run(true))
	})
}
