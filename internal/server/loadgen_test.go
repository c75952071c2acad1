package server

import (
	"bytes"
	"strings"
	"testing"
)

// TestAggregateOutcomesCanceledAccounting pins the per-tenant tallies:
// a canceled job must land in Canceled — not Failed, which it was
// lumped into before — while still clearing AllCompleted, and waits
// must average over every submission.
func TestAggregateOutcomesCanceledAccounting(t *testing.T) {
	outcomes := []JobOutcome{
		{Tenant: "alpha", ID: "j-000001", State: StateSucceeded, WaitSec: 1},
		{Tenant: "alpha", ID: "j-000002", State: StateCanceled, WaitSec: 3},
		{Tenant: "alpha", ID: "j-000003", State: StateSucceeded, WaitSec: 2},
		{Tenant: "beta", ID: "j-000004", State: StateFailed, WaitSec: 0, Error: "boom"},
		{Tenant: "beta", ID: "j-000005", State: StateSucceeded, WaitSec: 9},
	}
	reports, starved, allCompleted := aggregateOutcomes(outcomes, 5)
	if allCompleted {
		t.Fatal("allCompleted with canceled and failed jobs present")
	}
	if len(reports) != 2 || reports[0].Tenant != "alpha" || reports[1].Tenant != "beta" {
		t.Fatalf("reports not sorted by tenant: %+v", reports)
	}
	alpha, beta := reports[0], reports[1]
	if alpha.Submitted != 3 || alpha.Completed != 2 || alpha.Canceled != 1 || alpha.Failed != 0 {
		t.Fatalf("alpha tallies wrong: %+v (canceled must not count as failed)", alpha)
	}
	if beta.Submitted != 2 || beta.Completed != 1 || beta.Failed != 1 || beta.Canceled != 0 {
		t.Fatalf("beta tallies wrong: %+v", beta)
	}
	if alpha.MeanWaitSec != 2 || alpha.MaxWaitSec != 3 {
		t.Fatalf("alpha waits wrong: mean %g max %g", alpha.MeanWaitSec, alpha.MaxWaitSec)
	}
	if len(starved) != 1 || starved[0].ID != "j-000005" {
		t.Fatalf("starved = %+v, want only j-000005", starved)
	}

	// All-success runs stay healthy.
	okReports, _, ok := aggregateOutcomes([]JobOutcome{
		{Tenant: "alpha", State: StateSucceeded, WaitSec: 1},
	}, 5)
	if !ok || okReports[0].Completed != 1 {
		t.Fatalf("clean run not allCompleted: %+v", okReports)
	}
}

// TestLoadReportHealthDistinguishesCanceled: Healthy must name
// cancellation, not failure, when that is what happened, and the table
// must carry the canceled column.
func TestLoadReportHealthDistinguishesCanceled(t *testing.T) {
	rep := &LoadReport{
		Tenants: []TenantReport{
			{Tenant: "alpha", Submitted: 2, Completed: 1, Canceled: 1},
		},
	}
	err := rep.Healthy(false)
	if err == nil {
		t.Fatal("run with a canceled job reported healthy")
	}
	if !strings.Contains(err.Error(), "canceled") || strings.Contains(err.Error(), "failed") {
		t.Fatalf("health error misattributes cancellation: %v", err)
	}

	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "canceled") {
		t.Fatalf("report table lacks the canceled column:\n%s", out)
	}

	failRep := &LoadReport{
		Tenants: []TenantReport{{Tenant: "beta", Submitted: 1, Failed: 1}},
	}
	if err := failRep.Healthy(false); err == nil || !strings.Contains(err.Error(), "failed") {
		t.Fatalf("failed job not reported as failure: %v", err)
	}
}

// TestParseLoadSpecAppliesRequestRules: a mix entry that the server's
// request table refuses fails the spec at load, naming its tenant and
// entry, instead of failing every submission at runtime; a valid entry's
// zero fields stay for the server to fill.
func TestParseLoadSpecAppliesRequestRules(t *testing.T) {
	for _, tc := range []struct{ entry, want string }{
		{`{"workload": "gnmf", "density": 2}`, "density must be in (0, 1]"},
		{`{"workload": "gnmf", "nodes": -3}`, "nodes must be positive"},
		{`{"workload": "gnmf", "slots": -1}`, "slots must be positive"},
		{`{"workload": "gnmf", "tile": -4}`, "tile must be positive"},
		{`{"workload": "gnmf", "optimize": true, "deadline_sec": -5}`, "must be non-negative"},
		{`{"workload": "gnmf", "optimize": true, "deadline_sec": 60, "budget_dollars": 1}`, "at most one"},
	} {
		spec := `{"seed": 1, "tenants": [{"name": "a", "mix": [` + tc.entry + `]}]}`
		_, err := ParseLoadSpec([]byte(spec))
		if err == nil || !strings.Contains(err.Error(), "tenant a mix[0]: ") || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %v, want tenant a mix[0]: ...%s", tc.entry, err, tc.want)
		}
	}
	spec, err := ParseLoadSpec([]byte(`{"seed": 1, "tenants": [{"name": "a", "mix": [{"workload": "gnmf", "nodes": 64}]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	req, err := spec.Tenants[0].Mix[0].submitRequest("a", 0)
	if err != nil || req.Tile != 16 || req.Density != 0 || req.Nodes != 64 {
		t.Fatalf("submitted %+v, %v: want tile 16, density and the rest unset", req, err)
	}
}
