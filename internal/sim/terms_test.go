package sim

import (
	"math"
	"testing"

	"cumulon/internal/cloud"
)

// PlanTerms must decompose the prediction consistently: non-negative
// terms, a zero rack term (the predictor's two-level locality model), and
// a total that is a perfectly-packed lower bound on PredictPlan.
func TestPlanTermsDecomposition(t *testing.T) {
	tm, mt := calibrated(t, "m1.large", 2)
	cluster, err := cloud.NewCluster(mt, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	pl := compile(t, matmulSrc, 2048)
	pl.AutoSplit(cluster.TotalSlots())
	p := New(tm, cluster)
	terms := p.PlanTerms(pl)

	if terms.ComputeSec <= 0 || terms.LocalSec <= 0 || terms.StartupSec <= 0 {
		t.Fatalf("expected positive compute/local/startup terms: %+v", terms)
	}
	if terms.RemoteSec < 0 {
		t.Fatalf("negative remote term: %+v", terms)
	}
	if terms.RackSec != 0 {
		t.Fatalf("rack term must be zero under the two-level locality model: %+v", terms)
	}

	pred := p.PredictPlan(pl)
	total := terms.ComputeSec + terms.LocalSec + terms.RackSec + terms.RemoteSec + terms.StartupSec
	if total <= 0 || total > pred+1e-6 {
		t.Fatalf("terms total %.2f must lower-bound prediction %.2f", total, pred)
	}
	// The bound should also be meaningful, not vacuous.
	if total < pred*0.25 {
		t.Fatalf("terms total %.2f implausibly far below prediction %.2f", total, pred)
	}
}

// Term deltas between deployments must mirror their structural difference:
// fewer slots concentrate the same task-seconds, raising per-slot terms.
func TestPlanTermsScaleWithSlots(t *testing.T) {
	tm, mt := calibrated(t, "m1.large", 2)
	small, err := cloud.NewCluster(mt, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	big, err := cloud.NewCluster(mt, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	pl := compile(t, matmulSrc, 2048)
	pl.AutoSplit(small.TotalSlots())

	ts := New(tm, small).PlanTerms(pl)
	tb := New(tm, big).PlanTerms(pl)
	d := ts.Sub(tb)
	if d.ComputeSec <= 0 {
		t.Fatalf("4-node compute term should exceed 16-node: %+v vs %+v", ts, tb)
	}
	ratio := ts.ComputeSec / tb.ComputeSec
	if math.Abs(ratio-4) > 0.5 {
		t.Fatalf("compute term should scale ~4x with 4x fewer slots, got %.2fx", ratio)
	}
}
