package compute_test

import (
	"testing"

	"cumulon/internal/cloud"
	"cumulon/internal/compute"
	"cumulon/internal/exec"
	"cumulon/internal/lang"
	"cumulon/internal/obs"
	"cumulon/internal/plan"
	"cumulon/internal/workloads"
)

// TestMemoRecordsEveryPhase: one virtual run records every phase of every
// job — k-split products and their aggregations among them — under its
// TileOps, so a later run at the same splits computes no task. A traced run
// on the same memo records each phase once more, with kernel statistics.
func TestMemoRecordsEveryPhase(t *testing.T) {
	wl := workloads.GNMF(6000, 4000, 10, 2, 0.05)
	mt, err := cloud.TypeByName("m1.large")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cloud.NewCluster(mt, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := plan.Compile(wl.Prog, plan.Config{TileSize: 512, Densities: wl.Densities})
	if err != nil {
		t.Fatal(err)
	}
	memo := new(compute.Memo)
	wantPhases, wantTasks, aggs := 0, 0, 0
	for pass, rec := range []obs.Recorder{nil, obs.NewTrace()} {
		e, err := exec.New(exec.Config{Cluster: cl, Seed: 3, Backend: memo, Recorder: rec})
		if err != nil {
			t.Fatal(err)
		}
		pl := tmpl.Clone()
		pl.AutoSplit(cl.TotalSlots())
		for _, in := range pl.Inputs {
			if err := e.LoadVirtual(in); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Run(pl); err != nil {
			t.Fatal(err)
		}
		for _, j := range pl.Jobs {
			for _, ph := range j.Phases() {
				wantPhases++
				wantTasks += ph.Tasks()
				if ph.Kind == plan.AggPhase {
					aggs++
				}
			}
		}
		if phases, tasks := compute.MemoHolds(memo); phases != wantPhases || tasks != wantTasks {
			t.Fatalf("pass %d: the memo holds %d phases of %d tasks, the runs had %d of %d",
				pass, phases, tasks, wantPhases, wantTasks)
		}
	}
	if aggs == 0 {
		t.Fatal("no job k-splits; the aggregation phases go unchecked")
	}
}

// TestMemoHitAllocatesNothing: serving a recorded phase — RunBatch, a fetch
// of every task and release — allocates nothing, at 16 tasks as at 64: a
// memo hit builds no task values.
func TestMemoHitAllocatesNothing(t *testing.T) {
	prog, err := lang.Parse("input A 64 64\ninput B 64 64\nC = A * B\noutput C\n")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.Compile(prog, plan.Config{TileSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	j, env := pl.Jobs[0], compute.Env{Virtual: true}
	var allocs []float64
	for _, split := range []plan.Split{{CI: 4, CJ: 4, CK: 1}, {CI: 8, CJ: 8, CK: 1}} {
		j.Split = split
		ph := &j.Phases()[0]
		memo := new(compute.Memo)
		serve := func() {
			fetch, release := memo.RunBatch(env, j, ph)
			defer release()
			for i := range ph.Tasks() {
				if _, err := fetch(i); err != nil {
					t.Fatal(err)
				}
			}
		}
		serve()
		if phases, tasks := compute.MemoHolds(memo); phases != 1 || tasks != split.Tasks() {
			t.Fatalf("split %v: the memo holds %d phases of %d tasks, want 1 of %d", split, phases, tasks, split.Tasks())
		}
		allocs = append(allocs, testing.AllocsPerRun(20, serve))
	}
	if allocs[0] != 0 || allocs[1] != 0 {
		t.Fatalf("serving a recorded phase allocates %v times at 16 tasks, %v at 64; want 0 at both", allocs[0], allocs[1])
	}
}
