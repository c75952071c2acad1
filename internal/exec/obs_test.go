package exec

import (
	"math"
	"testing"

	"cumulon/internal/obs"
)

// TestTraceCriticalPathCoversRun is the acceptance invariant for the obs
// integration: on a recorded GNMF run the critical path must tile the
// whole program — its total equals RunMetrics.TotalSeconds and the
// per-category attribution sums back to that total within 1% (the
// breakdown is scaled to each span's duration, so it should be exact up
// to float error).
func TestTraceCriticalPathCoversRun(t *testing.T) {
	tr := obs.NewTrace()
	_, m := runGNMF(t, nil, nil, tr)

	prog, err := tr.Program()
	if err != nil {
		t.Fatal(err)
	}
	if d := prog.End - prog.Start; math.Abs(d-m.TotalSeconds) > 1e-9 {
		t.Fatalf("program span duration %.9f != RunMetrics.TotalSeconds %.9f", d, m.TotalSeconds)
	}

	cp, err := tr.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cp.TotalSeconds-m.TotalSeconds) > 1e-9 {
		t.Fatalf("critical path total %.9f != run total %.9f", cp.TotalSeconds, m.TotalSeconds)
	}

	// Steps must tile [0, Total] with no gaps or overlaps.
	at := 0.0
	for i, s := range cp.Steps {
		if math.Abs(s.Start-at) > 1e-9 {
			t.Fatalf("step %d (%s) starts at %.9f, previous ended at %.9f", i, s.Name, s.Start, at)
		}
		if s.End < s.Start {
			t.Fatalf("step %d (%s) has negative duration", i, s.Name)
		}
		at = s.End
	}
	if math.Abs(at-cp.TotalSeconds) > 1e-9 {
		t.Fatalf("steps end at %.9f, want %.9f", at, cp.TotalSeconds)
	}

	catSum := cp.Categories.Total()
	if rel := math.Abs(catSum-cp.TotalSeconds) / cp.TotalSeconds; rel > 0.01 {
		t.Fatalf("category attribution %.6f vs total %.6f: rel err %.4f > 1%%",
			catSum, cp.TotalSeconds, rel)
	}
	if cp.Categories[obs.CatCompute] <= 0 {
		t.Fatal("GNMF critical path attributes no compute time")
	}
	if cp.Categories[obs.CatStartup] <= 0 {
		t.Fatal("critical path attributes no job startup despite cloud.JobStartupSec")
	}
}
