package compute_test

import (
	"testing"

	"cumulon/internal/cloud"
	"cumulon/internal/compute"
	"cumulon/internal/exec"
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
