package sim

import (
	"math"
	"testing"

	"cumulon/internal/cloud"
	"cumulon/internal/exec"
	"cumulon/internal/lang"
	"cumulon/internal/model"
	"cumulon/internal/plan"
)

func calibrated(t *testing.T, typeName string, slots int) (*model.TaskModel, cloud.MachineType) {
	t.Helper()
	mt, err := cloud.TypeByName(typeName)
	if err != nil {
		t.Fatal(err)
	}
	res, err := model.Calibrate(mt, slots, 11)
	if err != nil {
		t.Fatal(err)
	}
	return res.Model, mt
}

func compile(t *testing.T, src string, tile int) *plan.Plan {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.Compile(prog, plan.Config{TileSize: tile})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

const matmulSrc = `
input A 16384 16384
input B 16384 16384
C = A * B
output C
`

// The headline accuracy property (paper's model-validation experiments):
// simulator predictions track the engine within a modest relative error
// across cluster sizes.
func TestPredictionTracksEngine(t *testing.T) {
	tm, mt := calibrated(t, "m1.large", 2)
	for _, nodes := range []int{2, 4, 8, 16} {
		cluster, err := cloud.NewCluster(mt, nodes, 2)
		if err != nil {
			t.Fatal(err)
		}
		pl := compile(t, matmulSrc, 2048)
		pl.AutoSplit(cluster.TotalSlots())
		pred := New(tm, cluster).PredictPlan(pl)

		e, err := exec.New(exec.Config{Cluster: cluster, Seed: 5, NoiseFactor: 0.08})
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range pl.Inputs {
			if err := e.LoadVirtual(in); err != nil {
				t.Fatal(err)
			}
		}
		m, err := e.Run(pl)
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(pred-m.TotalSeconds) / m.TotalSeconds
		if rel > 0.25 {
			t.Fatalf("nodes=%d: prediction %.1fs vs actual %.1fs (rel err %.2f)",
				nodes, pred, m.TotalSeconds, rel)
		}
	}
}

func TestPredictMonotoneInClusterSize(t *testing.T) {
	tm, mt := calibrated(t, "c1.medium", 2)
	prev := math.Inf(1)
	for _, nodes := range []int{1, 2, 4, 8, 16, 32} {
		cluster, _ := cloud.NewCluster(mt, nodes, 2)
		pl := compile(t, matmulSrc, 2048)
		p := New(tm, cluster)
		total := p.OptimizeSplits(pl, 0)
		if total > prev*1.05 {
			t.Fatalf("predicted time grew with cluster size at n=%d: %v -> %v", nodes, prev, total)
		}
		prev = total
	}
}

func TestBestSplitBeatsWorstSplit(t *testing.T) {
	tm, mt := calibrated(t, "m1.large", 2)
	cluster, _ := cloud.NewCluster(mt, 8, 2)
	p := New(tm, cluster)
	pl := compile(t, matmulSrc, 2048)
	j := pl.Jobs[0]

	best, bestTime, _ := p.BestSplit(j, 0)
	if err := best.Validate(j); err != nil {
		t.Fatal(err)
	}
	// The degenerate one-task split must be no better than the optimum.
	j.Split = plan.Split{CI: 1, CJ: 1, CK: 1}
	serial := p.PredictJob(j)
	if bestTime > serial {
		t.Fatalf("best split %v (%.1fs) worse than serial (%.1fs)", best, bestTime, serial)
	}
	if bestTime >= serial*0.5 {
		t.Fatalf("16-way cluster should at least halve the serial time: %v vs %v", bestTime, serial)
	}
}

func TestMemoryConstraintShrinksChunks(t *testing.T) {
	tm, mt := calibrated(t, "m1.small", 1)
	cluster, _ := cloud.NewCluster(mt, 4, 1)
	p := New(tm, cluster)
	pl := compile(t, matmulSrc, 2048)
	j := pl.Jobs[0]

	unbounded, _, _ := p.BestSplit(j, 0)
	j.Split = unbounded
	memUnbounded := plan.TaskFootprint(plan.Profile(j))

	bound := memUnbounded / 4
	bounded, _, fits := p.BestSplit(j, bound)
	j.Split = bounded
	if got := plan.TaskFootprint(plan.Profile(j)); !fits || got > bound {
		t.Fatalf("memory bound violated: %d > %d (split %v, fits %v)", got, bound, bounded, fits)
	}

	// Below every candidate's footprint, the smallest one is taken and
	// reported as not fitting.
	fallback, _, fits := p.BestSplit(j, 1)
	j.Split = fallback
	smallest := plan.TaskFootprint(plan.Profile(j))
	for _, s := range plan.AppendSplitCandidates(nil, j, 8*cluster.TotalSlots()) {
		j.Split = s
		if fp := plan.TaskFootprint(plan.Profile(j)); fits || fp < smallest {
			t.Fatalf("fallback %v (fits %v) holds %d B, candidate %v %d B", fallback, fits, smallest, s, fp)
		}
	}
}

func TestOptimizeSplitsImprovesOnAutoSplit(t *testing.T) {
	tm, mt := calibrated(t, "m1.large", 2)
	cluster, _ := cloud.NewCluster(mt, 8, 2)
	p := New(tm, cluster)

	auto := compile(t, matmulSrc, 2048)
	auto.AutoSplit(cluster.TotalSlots())
	autoTime := p.PredictPlan(auto)

	opt := compile(t, matmulSrc, 2048)
	optTime := p.OptimizeSplits(opt, 0)
	if optTime > autoTime*1.001 {
		t.Fatalf("optimized splits (%.1fs) worse than heuristic (%.1fs)", optTime, autoTime)
	}
}

func TestPredictJobIncludesStartup(t *testing.T) {
	tm, mt := calibrated(t, "m1.large", 2)
	cluster, _ := cloud.NewCluster(mt, 2, 2)
	p := New(tm, cluster)
	pl := compile(t, "input A 64 64\nB = A\noutput B", 32)
	phases := 0.0
	for _, ph := range p.profiles.Profile(pl.Jobs[0]) {
		phases += p.schedulePhase(ph, nil)
	}
	if got, want := p.PredictJob(pl.Jobs[0]), cloud.JobStartupSec+phases; got != want {
		t.Fatalf("PredictJob = %v, want startup %v + phases %v", got, cloud.JobStartupSec, phases)
	}
}

func TestLocalFractionBounds(t *testing.T) {
	tm := &model.TaskModel{B0: 1}
	mt, _ := cloud.TypeByName("m1.small")
	for _, nodes := range []int{1, 2, 3, 10, 100} {
		cluster, _ := cloud.NewCluster(mt, nodes, 1)
		p := New(tm, cluster)
		f := p.localFraction()
		if f <= 0 || f > 1 {
			t.Fatalf("nodes=%d: local fraction %v out of range", nodes, f)
		}
	}
}

func TestPredictPlanDistribution(t *testing.T) {
	tm, mt := calibrated(t, "m1.large", 2)
	cluster, _ := cloud.NewCluster(mt, 8, 2)
	p := New(tm, cluster)
	pl := compile(t, matmulSrc, 2048)
	pl.AutoSplit(cluster.TotalSlots())

	d := p.PredictPlanDistribution(pl, 40, 9)
	if d.Trials != 40 {
		t.Fatalf("trials: %d", d.Trials)
	}
	if !(d.P50 <= d.P95) {
		t.Fatalf("quantiles out of order: p50=%v p95=%v", d.P50, d.P95)
	}
	if d.Mean <= 0 {
		t.Fatalf("mean: %v", d.Mean)
	}
	// The point estimate should sit inside the distribution's bulk.
	point := p.PredictPlan(pl)
	if point < d.P50*0.7 || point > d.P95*1.3 {
		t.Fatalf("point estimate %v far outside [p50=%v, p95=%v]", point, d.P50, d.P95)
	}
}

// The validation property: Monte Carlo percentiles bracket the engine's
// empirical completion-time distribution across seeds.
func TestDistributionBracketsEngineRuns(t *testing.T) {
	tm, mt := calibrated(t, "m1.large", 2)
	cluster, _ := cloud.NewCluster(mt, 8, 2)
	pl := compile(t, matmulSrc, 2048)
	pl.AutoSplit(cluster.TotalSlots())
	d := New(tm, cluster).PredictPlanDistribution(pl, 60, 5)

	within := 0
	const runs = 12
	for seed := int64(0); seed < runs; seed++ {
		e, err := exec.New(exec.Config{Cluster: cluster, Seed: 100 + seed, NoiseFactor: 0.08})
		if err != nil {
			t.Fatal(err)
		}
		pl2 := compile(t, matmulSrc, 2048)
		pl2.AutoSplit(cluster.TotalSlots())
		for _, in := range pl2.Inputs {
			if err := e.LoadVirtual(in); err != nil {
				t.Fatal(err)
			}
		}
		m, err := e.Run(pl2)
		if err != nil {
			t.Fatal(err)
		}
		if m.TotalSeconds >= d.P50*0.85 && m.TotalSeconds <= d.P95*1.15 {
			within++
		}
	}
	if within < runs*2/3 {
		t.Fatalf("only %d/%d engine runs inside the predicted band [%.0f, %.0f]",
			within, runs, d.P50*0.85, d.P95*1.15)
	}
}

func TestPredictPlanQuantileMonotone(t *testing.T) {
	tm, mt := calibrated(t, "c1.medium", 2)
	cluster, _ := cloud.NewCluster(mt, 4, 2)
	p := New(tm, cluster)
	pl := compile(t, matmulSrc, 2048)
	pl.AutoSplit(cluster.TotalSlots())
	q50 := p.PredictPlanQuantile(pl, 30, 1, 0.5)
	q80 := p.PredictPlanQuantile(pl, 30, 1, 0.8)
	q95 := p.PredictPlanQuantile(pl, 30, 1, 0.95)
	if !(q50 <= q80 && q80 <= q95) {
		t.Fatalf("quantiles not monotone: %v %v %v", q50, q80, q95)
	}
}

// TestPredictPlanQuantileTailResolves: a 0.99-confidence ask must read the
// actual tail of the Monte Carlo samples, not clamp to P95 — with enough
// trials the noise residuals produce a right tail strictly above P95.
func TestPredictPlanQuantileTailResolves(t *testing.T) {
	tm, mt := calibrated(t, "c1.medium", 2)
	cluster, _ := cloud.NewCluster(mt, 4, 2)
	p := New(tm, cluster)
	pl := compile(t, matmulSrc, 2048)
	pl.AutoSplit(cluster.TotalSlots())

	const trials, seed = 200, 1
	d := p.PredictPlanDistribution(pl, trials, seed)
	q99 := p.PredictPlanQuantile(pl, trials, seed, 0.99)
	if !(q99 > d.P95) {
		t.Fatalf("q99=%v does not exceed P95=%v; tail clamped", q99, d.P95)
	}
	q100 := p.PredictPlanQuantile(pl, trials, seed, 1)
	if q99 > q100 {
		t.Fatalf("q99=%v above the sample maximum %v", q99, q100)
	}
}

// TestQuantileOfGuards: degenerate inputs must not panic — empty samples
// yield 0 and out-of-range q clamps to the extremes.
func TestQuantileOfGuards(t *testing.T) {
	if v := quantileOf(nil, 0.5); v != 0 {
		t.Fatalf("quantileOf(nil) = %v, want 0", v)
	}
	s := []float64{1, 2, 3, 4}
	if v := quantileOf(s, -0.5); v != 1 {
		t.Fatalf("quantileOf(q<0) = %v, want first sample", v)
	}
	if v := quantileOf(s, 2); v != 4 {
		t.Fatalf("quantileOf(q>1) = %v, want last sample", v)
	}
}
