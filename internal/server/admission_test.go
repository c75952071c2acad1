package server

import "testing"

// TestNormalizeDefaults: a zero field takes the site's default, max_nodes
// above the site's capacity takes the capacity, a zero site fills and
// bounds nothing, and normalizing twice changes nothing. The refusals are
// rows of TestServerValidation, cumulon's TestRunBadInputs and
// TestParseLoadSpecAppliesRequestRules.
func TestNormalizeDefaults(t *testing.T) {
	site := Config{Nodes: 8}.WithDefaults()
	base := SubmitRequest{Tile: 2048, Density: 0.05, Machine: "m1.large", Nodes: 4, Slots: 2, Seed: 42}
	opt := base
	opt.Optimize, opt.DeadlineSec, opt.MaxNodes = true, 24*3600, 8
	with := func(r SubmitRequest, f func(*SubmitRequest)) SubmitRequest { f(&r); return r }
	for _, tc := range []struct {
		name     string
		site     Config
		in, want SubmitRequest
	}{
		{"defaults", site, SubmitRequest{}, base},
		{"optimize defaults", site, SubmitRequest{Optimize: true}, opt},
		{"max nodes above capacity", site, SubmitRequest{Optimize: true, MaxNodes: 100}, opt},
		{"max nodes within capacity", site, SubmitRequest{Optimize: true, MaxNodes: 3},
			with(opt, func(r *SubmitRequest) { r.MaxNodes = 3 })},
		{"budget search", site, SubmitRequest{Optimize: true, BudgetDollars: 2},
			with(opt, func(r *SubmitRequest) { r.DeadlineSec, r.BudgetDollars = 0, 2 })},
		{"confidence under a deadline", site, SubmitRequest{Optimize: true, Confidence: 0.9},
			with(opt, func(r *SubmitRequest) { r.Confidence = 0.9 })},
		{"no retries", site, SubmitRequest{MaxRetries: -1}, with(base, func(r *SubmitRequest) { r.MaxRetries = -1 })},
		{"no site", Config{}, SubmitRequest{Nodes: 100}, SubmitRequest{Tile: 2048, Density: 0.05, Nodes: 100}},
	} {
		got := tc.in
		if err := got.Normalize(tc.site); err != nil || got != tc.want {
			t.Fatalf("%s: Normalize(%+v) = %+v, %v; want %+v", tc.name, tc.in, got, err, tc.want)
		}
		if again := got; again.Normalize(tc.site) != nil || again != got {
			t.Fatalf("%s: normalizing %+v again gave %+v", tc.name, got, again)
		}
	}
}

// TestNormalizeAllocatesNothing: the table sits on every Submit, so a valid
// request, of the kinds serve_mixed submits, normalizes without allocating.
func TestNormalizeAllocatesNothing(t *testing.T) {
	site := Config{}.WithDefaults()
	src := gnmfSource()
	for _, req := range []SubmitRequest{
		{Tenant: "a", Program: src, Tile: 4, Nodes: 2},
		{Tenant: "a", Program: src, Tile: 4, Density: 0.4, Materialize: true, Seed: 7, CheckpointEvery: 1},
		{Tenant: "a", Program: src, Optimize: true, DeadlineSec: 600},
	} {
		if n := testing.AllocsPerRun(100, func() {
			r := req
			if err := r.Normalize(site); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("normalizing %+v allocates %v times", req, n)
		}
	}
}
