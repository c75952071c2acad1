package sim

import (
	"cumulon/internal/cloud"
	"cumulon/internal/plan"
)

// Terms decomposes a plan-time prediction into the task model's additive
// terms, expressed as per-slot seconds: the summed task-seconds of each
// term divided evenly over the cluster's slots, plus the serial per-job
// startup. Total() is therefore a perfectly-packed lower bound on the
// predicted makespan — close to PredictPlan when phases schedule into
// full waves — and term *deltas* between two candidate deployments
// explain where their predicted-time difference comes from (the
// optimizer's EXPLAIN report prints exactly these).
//
// The categories mirror the obs read classes. RackSec is always zero
// under the current predictor: its locality model splits reads into
// node-local and everything-else, folding rack-local traffic into the
// remote term; the field keeps term vectors aligned with the engine's
// three-level locality accounting.
type Terms struct {
	// ComputeSec is the flop term (model BFlops · flops).
	ComputeSec float64 `json:"compute_sec"`
	// LocalSec is the disk term: node-local reads plus primary writes.
	LocalSec float64 `json:"local_sec"`
	// RackSec is rack-local read time (zero; see the type comment).
	RackSec float64 `json:"rack_sec"`
	// RemoteSec is the network term: remote reads plus replica writes.
	RemoteSec float64 `json:"remote_sec"`
	// StartupSec is fixed overhead: per-job launch (serial) plus the
	// per-task intercept spread over the slots.
	StartupSec float64 `json:"startup_sec"`
}

// Sub returns the element-wise difference t - o.
func (t Terms) Sub(o Terms) Terms {
	return Terms{
		ComputeSec: t.ComputeSec - o.ComputeSec,
		LocalSec:   t.LocalSec - o.LocalSec,
		RackSec:    t.RackSec - o.RackSec,
		RemoteSec:  t.RemoteSec - o.RemoteSec,
		StartupSec: t.StartupSec - o.StartupSec,
	}
}

// PlanTerms decomposes the predictor's estimate for the plan (under its
// current splits) into model terms. It applies the same replication
// geometry and locality split as TaskSeconds, so the decomposition is
// consistent with PredictPlan's totals.
func (p *Predictor) PlanTerms(pl *plan.Plan) Terms {
	slots := float64(p.Cluster.TotalSlots())
	var t Terms
	for _, j := range pl.Jobs {
		t.StartupSec += cloud.JobStartupSec
		for _, ph := range p.profiles.Profile(j) {
			// Each class's per-slot terms, priced once.
			class := make([]Terms, len(ph.Work))
			for c, w := range ph.Work {
				disk, net := p.diskNet(w)
				b0, fl, dk, nt := p.Model.Terms(w.Flops, disk, net)
				class[c] = Terms{StartupSec: b0 / slots, ComputeSec: fl / slots, LocalSec: dk / slots, RemoteSec: nt / slots}
			}
			for _, c := range ph.Class {
				t.StartupSec += class[c].StartupSec
				t.ComputeSec += class[c].ComputeSec
				t.LocalSec += class[c].LocalSec
				t.RemoteSec += class[c].RemoteSec
			}
		}
	}
	return t
}
