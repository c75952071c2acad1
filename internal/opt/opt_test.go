package opt

import (
	"testing"

	"cumulon/internal/cloud"
	"cumulon/internal/lang"
	"cumulon/internal/plan"
)

const workloadSrc = `
input A 16384 16384
input B 16384 16384
C = A * B
output C
`

func request(t *testing.T) Request {
	t.Helper()
	prog, err := lang.Parse(workloadSrc)
	if err != nil {
		t.Fatal(err)
	}
	// Two machine types and a modest node sweep keep the test fast while
	// leaving a real tradeoff to discover.
	small, _ := cloud.TypeByName("m1.small")
	big, _ := cloud.TypeByName("c1.xlarge")
	return Request{
		Program:  prog,
		PlanCfg:  plan.Config{TileSize: 2048},
		Machines: []cloud.MachineType{small, big},
		MaxNodes: 16,
	}
}

func TestEnumerateCoversSpace(t *testing.T) {
	o := New(1)
	req := request(t)
	cands, err := o.Enumerate(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 20 {
		t.Fatalf("too few candidates: %d", len(cands))
	}
	types := map[string]bool{}
	nodes := map[int]bool{}
	for _, d := range cands {
		types[d.Cluster.Type.Name] = true
		nodes[d.Cluster.Nodes] = true
		if d.PredSeconds <= 0 || d.Cost <= 0 {
			t.Fatalf("degenerate candidate: %+v", d)
		}
		if d.CostLinear > d.Cost+1e-9 {
			t.Fatalf("linear cost above staircase: %+v", d)
		}
		if len(d.Splits) == 0 {
			t.Fatalf("candidate without splits: %+v", d)
		}
	}
	if len(types) != 2 || len(nodes) < 5 {
		t.Fatalf("space not covered: types=%v nodes=%v", types, nodes)
	}
}

func TestMinCostForDeadline(t *testing.T) {
	o := New(1)
	req := request(t)

	// A loose deadline first: establish the cheapest overall choice.
	req.DeadlineSec = 12 * 3600
	loose, err := o.MinCostForDeadline(req)
	if err != nil {
		t.Fatal(err)
	}
	if !loose.Met {
		t.Fatalf("12h deadline should be feasible: best %v", loose.Best)
	}
	if loose.Best.PredSeconds > req.DeadlineSec {
		t.Fatalf("best violates deadline: %v", loose.Best)
	}

	// Tighten the deadline: cost must not decrease.
	req.DeadlineSec = loose.Best.PredSeconds / 4
	tight, err := o.MinCostForDeadline(req)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Met && tight.Best.Cost < loose.Best.Cost {
		t.Fatalf("tighter deadline got cheaper: %v vs %v", tight.Best, loose.Best)
	}
}

func TestInfeasibleDeadlineReturnsFastest(t *testing.T) {
	o := New(1)
	req := request(t)
	req.DeadlineSec = 1 // nothing finishes in a second
	res, err := o.MinCostForDeadline(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Met {
		t.Fatal("1-second deadline cannot be met")
	}
	for _, d := range res.Candidates {
		if d.PredSeconds < res.Best.PredSeconds {
			t.Fatalf("Best is not the fastest: %v vs %v", res.Best, d)
		}
	}
}

func TestMinTimeForBudget(t *testing.T) {
	o := New(1)
	req := request(t)
	req.BudgetDollars = 1000
	rich, err := o.MinTimeForBudget(req)
	if err != nil {
		t.Fatal(err)
	}
	if !rich.Met {
		t.Fatal("$1000 should buy something")
	}
	if rich.Best.Cost > req.BudgetDollars {
		t.Fatalf("best violates budget: %v", rich.Best)
	}
	// A tiny budget yields a slower (or equal) plan.
	req.BudgetDollars = rich.Best.Cost / 4
	poor, err := o.MinTimeForBudget(req)
	if err != nil {
		t.Fatal(err)
	}
	if poor.Met && poor.Best.PredSeconds < rich.Best.PredSeconds {
		t.Fatalf("smaller budget got faster: %v vs %v", poor.Best, rich.Best)
	}
}

func TestParetoFrontierShape(t *testing.T) {
	o := New(1)
	req := request(t)
	cands, err := o.Enumerate(req)
	if err != nil {
		t.Fatal(err)
	}
	frontier, _ := paretoSplit(cands)
	if len(frontier) < 2 {
		t.Fatalf("frontier too small: %d points", len(frontier))
	}
	for i := 1; i < len(frontier); i++ {
		if frontier[i].PredSeconds <= frontier[i-1].PredSeconds {
			t.Fatalf("frontier not time-ascending at %d", i)
		}
		if frontier[i].Cost >= frontier[i-1].Cost {
			t.Fatalf("frontier not cost-descending at %d", i)
		}
	}
}

func TestMachineChoiceCrossover(t *testing.T) {
	// The qualitative provisioning result: cheap machines win at loose
	// deadlines, fast machines win at tight ones. The effect shows on
	// I/O-bound workloads, where m1.small delivers the most disk
	// bandwidth per dollar but a capped cluster of them cannot match the
	// aggregate bandwidth of premium nodes.
	o := New(1)
	req := request(t)
	prog, err := lang.Parse(`
input A 60000 20000
input B 60000 20000
C = A .* B + A
output C
`)
	if err != nil {
		t.Fatal(err)
	}
	req.Program = prog
	req.DeadlineSec = 24 * 3600
	loose, err := o.MinCostForDeadline(req)
	if err != nil {
		t.Fatal(err)
	}
	// Find the fastest achievable time, then demand (close to) it.
	var fastest float64
	for _, d := range loose.Candidates {
		if fastest == 0 || d.PredSeconds < fastest {
			fastest = d.PredSeconds
		}
	}
	req.DeadlineSec = fastest * 1.05
	tight, err := o.MinCostForDeadline(req)
	if err != nil {
		t.Fatal(err)
	}
	if !loose.Met || !tight.Met {
		t.Fatalf("both deadlines should be feasible: %v %v", loose.Met, tight.Met)
	}
	if loose.Best.Cluster.Type.Name == "c1.xlarge" {
		t.Fatalf("loose deadline should not need the premium machine: %v", loose.Best)
	}
	if tight.Best.Cluster.Type.Name != "c1.xlarge" {
		t.Fatalf("tight deadline should pick the fast machine: %v", tight.Best)
	}
}

func TestDeploymentApply(t *testing.T) {
	o := New(1)
	req := request(t)
	req.DeadlineSec = 12 * 3600
	res, err := o.MinCostForDeadline(req)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.Compile(req.Program, req.PlanCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Best.Apply(pl); err != nil {
		t.Fatal(err)
	}
	for _, j := range pl.Jobs {
		if j.Split != res.Best.Splits[j.ID] {
			t.Fatal("split not applied")
		}
	}
}

func TestModelCacheReuse(t *testing.T) {
	o := New(1)
	mt, _ := cloud.TypeByName("m1.small")
	m1, err := o.ModelFor(mt, 1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := o.ModelFor(mt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("model not cached")
	}
}

func TestRequestValidation(t *testing.T) {
	o := New(1)
	req := request(t)
	if _, err := o.MinCostForDeadline(req); err == nil {
		t.Fatal("want error for missing deadline")
	}
	if _, err := o.MinTimeForBudget(req); err == nil {
		t.Fatal("want error for missing budget")
	}
}

func TestTileSizeSweep(t *testing.T) {
	o := New(1)
	req := request(t)
	req.TileSizes = []int{1024, 2048, 4096}
	cands, err := o.Enumerate(req)
	if err != nil {
		t.Fatal(err)
	}
	tiles := map[int]bool{}
	for _, d := range cands {
		tiles[d.TileSize] = true
	}
	if len(tiles) != 3 {
		t.Fatalf("tile sizes explored: %v", tiles)
	}
	// Applying a deployment to a plan with the wrong tile size must fail.
	pl, err := plan.Compile(req.Program, plan.Config{TileSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := cands[0].Apply(pl); err == nil {
		t.Fatal("tile-size mismatch not detected")
	}
}

// TestRepeatedTileSizesEvaluatedOnce: a tile size or machine type listed
// twice is swept once, in the order of its first occurrence, so no grid point
// appears twice among the candidates, the trace or the frontier.
func TestRepeatedTileSizesEvaluatedOnce(t *testing.T) {
	small, _ := cloud.TypeByName("m1.small")
	for _, c := range []struct {
		machines    int
		tiles, want []int
	}{
		{1, nil, []int{2048}},
		{1, []int{1024}, []int{1024}},
		{1, []int{1024, 1024}, []int{1024}},
		{1, []int{2048, 1024, 2048, 1024}, []int{2048, 1024}},
		{3, []int{1024}, []int{1024}},
	} {
		req := request(t)
		req.Machines, req.MaxNodes, req.TileSizes = nil, 2, c.tiles
		for m := 0; m < c.machines; m++ {
			req.Machines = append(req.Machines, small)
		}
		req.DeadlineSec = 2 * 3600
		st := NewSearchTrace()
		req.Search = st
		res, err := New(1).MinCostForDeadline(req)
		if err != nil {
			t.Fatal(err)
		}
		// m1.small sweeps 1 and 2 slots on 1 and 2 nodes.
		if len(res.Candidates) != 4*len(c.want) {
			t.Fatalf("%d x m1.small, tiles %v: %d candidates, want %d", c.machines, c.tiles, len(res.Candidates), 4*len(c.want))
		}
		for i, d := range res.Candidates {
			if d.TileSize != c.want[i%len(c.want)] {
				t.Fatalf("tiles %v: candidate %d has tile %d, want the order %v", c.tiles, i, d.TileSize, c.want)
			}
		}
		if last, _ := st.Last(); len(last.Candidates) != len(res.Candidates) {
			t.Fatalf("tiles %v: %d traced candidates for %d evaluated", c.tiles, len(last.Candidates), len(res.Candidates))
		}
		if hits, misses := st.CounterValue(CounterModelCacheHits), st.CounterValue(CounterModelCacheMisses); hits != 0 || misses != 2 {
			t.Fatalf("%d x m1.small: %d cache hits and %d misses, want 0 and 2", c.machines, hits, misses)
		}
		for i, by := range res.DominatedBy {
			if d := res.Candidates[i]; by >= 0 && res.Candidates[by].PredSeconds == d.PredSeconds && res.Candidates[by].Cost == d.Cost {
				t.Fatalf("tiles %v: candidate %d is dominated by its duplicate %d", c.tiles, i, by)
			}
		}
	}
}

func TestConfidenceDeadline(t *testing.T) {
	o := New(1)
	req := request(t)
	// First find a point-optimal deployment under a moderately tight
	// deadline, then demand 95% confidence at the same deadline: the
	// confident answer can only be same-or-more conservative (>= cost).
	req.DeadlineSec = 4 * 3600
	point, err := o.MinCostForDeadline(req)
	if err != nil {
		t.Fatal(err)
	}
	if !point.Met {
		t.Skip("deadline infeasible in point mode; nothing to compare")
	}
	req.Confidence = 0.95
	req.Trials = 20
	conf, err := o.MinCostForDeadline(req)
	if err != nil {
		t.Fatal(err)
	}
	if !conf.Met {
		t.Fatalf("confidence mode found nothing under a loose deadline")
	}
	if conf.Best.Cost < point.Best.Cost {
		t.Fatalf("95%% confidence picked a cheaper plan (%v) than the point optimum (%v)",
			conf.Best.Cost, point.Best.Cost)
	}
	if conf.Best.PredSeconds > req.DeadlineSec {
		t.Fatalf("promised quantile %v exceeds deadline", conf.Best.PredSeconds)
	}
}
