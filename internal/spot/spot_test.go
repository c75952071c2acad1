package spot

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"testing"

	"cumulon/internal/cloud"
	"cumulon/internal/core"
	"cumulon/internal/linalg"
	"cumulon/internal/plan"
	"cumulon/internal/workloads"
)

func market() Market { return DefaultMarket(0.24) } // m1.large price

// fixture is a small materialized GNMF on 4 x m1.large: three
// iterations, so two checkpoints to resume from, in ≈ 260 virtual
// seconds (a few market steps).
type fixture struct {
	sess *core.Session
	wl   workloads.Workload
	cfg  plan.Config
	opts core.ExecOptions
}

func newFixture(t *testing.T) fixture {
	t.Helper()
	mt, err := cloud.TypeByName("m1.large")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cloud.NewCluster(mt, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	wl := workloads.GNMF(26, 22, 4, 3, 0.25)
	return fixture{
		sess: core.NewSession(7),
		wl:   wl,
		cfg:  plan.Config{TileSize: 4, Densities: wl.Densities},
		opts: core.ExecOptions{Cluster: cl, Inputs: core.RandomInputs(wl.Prog, plan.Config{Densities: wl.Densities}, 5)},
	}
}

func (f fixture) runner() *runner { return newRunner(f.sess, f.wl.Prog, f.cfg, f.opts) }

// uninterrupted is the program run on demand, with the spot runs'
// checkpoint cadence and never killed.
func (f fixture) uninterrupted(t *testing.T) *core.ExecResult {
	t.Helper()
	opts := f.opts
	opts.CheckpointEvery = 1
	res, err := f.sess.Run(f.wl.Prog, f.cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func (f fixture) trial(t *testing.T, r *runner, bid float64, seed int64, horizonSec float64) trial {
	t.Helper()
	tr, err := r.trial(market(), bid, seed, horizonSec)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTraceStatistics(t *testing.T) {
	m := market()
	trace := m.Trace(48*3600, 1)
	var sum float64
	below := 0
	for _, p := range trace {
		if p <= 0 {
			t.Fatal("non-positive price")
		}
		sum += p
		if p < m.OnDemand {
			below++
		}
	}
	mean := sum / float64(len(trace))
	// The long-run average sits near the configured mean, well below
	// on-demand; spikes make it a bit higher than Mean.
	if mean < 0.5*m.Mean || mean > m.OnDemand {
		t.Fatalf("trace mean %v implausible (mean %v, on-demand %v)", mean, m.Mean, m.OnDemand)
	}
	if frac := float64(below) / float64(len(trace)); frac < 0.8 {
		t.Fatalf("only %v of the time below on-demand", frac)
	}
}

func TestTraceDeterminism(t *testing.T) {
	m := market()
	a := m.Trace(3600, 42)
	b := m.Trace(3600, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give same trace")
		}
	}
}

func TestHighBidAlwaysFinishes(t *testing.T) {
	// Bidding far above any spike means no evictions, the uninterrupted
	// run's time, and cost below on-demand (you pay the spot price, not
	// your bid).
	f := newFixture(t)
	m := market()
	want := f.uninterrupted(t).Metrics.TotalSeconds
	tr := f.trial(t, f.runner(), 100*m.OnDemand, 3, 24*3600)
	if tr.final == nil {
		t.Fatal("unbeatable bid did not finish")
	}
	if tr.evictions != 0 {
		t.Fatalf("unbeatable bid evicted %d times", tr.evictions)
	}
	if got := tr.final.Metrics.TotalSeconds; got != want {
		t.Fatalf("no-eviction runtime %v != %v", got, want)
	}
	if onDemand := cloud.CostLinear(f.opts.Cluster.Type, f.opts.Cluster.Nodes, want); tr.cost >= onDemand {
		t.Fatalf("spot cost %v above on-demand %v", tr.cost, onDemand)
	}
}

func TestLowBidNeverRuns(t *testing.T) {
	f := newFixture(t)
	r := f.runner()
	tr := f.trial(t, r, 0.01*market().Mean, 3, 6*3600)
	if tr.final != nil || tr.cost > 0 || len(r.done) > 0 {
		t.Fatalf("sub-floor bid should never run: %+v", tr)
	}
}

func TestMidBidEvictsAndResumes(t *testing.T) {
	// A bid just above the mean gets evicted by noise and spikes;
	// aggregate over seeds to avoid flakiness.
	f := newFixture(t)
	r := f.runner()
	evictions, resumed := 0, 0
	for seed := int64(0); seed < 20; seed++ {
		tr := f.trial(t, r, market().Mean*1.1, seed, 96*3600)
		evictions += tr.evictions
		if tr.final != nil && tr.final.Metrics.ResumedFromStmt > 0 {
			resumed++
		}
	}
	if evictions == 0 {
		t.Fatal("a marginal bid never got evicted across 20 traces")
	}
	if resumed == 0 {
		t.Fatal("no evicted trial finished from a checkpoint")
	}
}

// TestEvictedTrialMatchesUninterrupted: a trial evicted at least twice,
// that finishes from a checkpoint, has the outputs of a run that never
// was evicted.
func TestEvictedTrialMatchesUninterrupted(t *testing.T) {
	f := newFixture(t)
	want := f.uninterrupted(t).Outputs
	r := f.runner()
	for seed := int64(0); seed < 100; seed++ {
		tr := f.trial(t, r, market().Mean*1.1, seed, 96*3600)
		if tr.final == nil || tr.evictions < 2 || tr.final.Metrics.ResumedFromStmt == 0 {
			continue
		}
		t.Logf("seed %d: %d evictions, finished from stmt %d", seed, tr.evictions, tr.final.Metrics.ResumedFromStmt)
		for name, d := range want {
			if digest(tr.final.Outputs[name]) != digest(d) {
				t.Fatalf("seed %d: output %s after %d evictions differs from the uninterrupted run's",
					seed, name, tr.evictions)
			}
		}
		return
	}
	t.Fatal("no trace evicted a trial twice that then finished from a checkpoint")
}

func digest(d *linalg.Dense) [sha256.Size]byte {
	b := make([]byte, 8*len(d.Data))
	for i, v := range d.Data {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return sha256.Sum256(b)
}

func TestMonteCarloMonotoneInBid(t *testing.T) {
	f := newFixture(t)
	m := market()
	horizon := 10 * f.uninterrupted(t).Metrics.TotalSeconds
	estimate := func(bid float64) Estimate {
		e, err := newRunner(f.sess, f.wl.Prog, f.cfg, f.opts).monteCarlo(m, bid, 40, 9, horizon)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	lo, hi := estimate(m.Mean*1.05), estimate(3*m.OnDemand)
	if hi.FinishProb < lo.FinishProb {
		t.Fatalf("higher bid lowered finish probability: %v vs %v", hi.FinishProb, lo.FinishProb)
	}
	if hi.FinishProb < 0.99 {
		t.Fatalf("unbeatable bid should almost surely finish: %v", hi.FinishProb)
	}
}

func TestOptimizeBid(t *testing.T) {
	f := newFixture(t)
	m := market()
	sec := f.uninterrupted(t).Metrics.TotalSeconds
	best, ok, sweep, err := OptimizeBid(f.sess, f.wl.Prog, f.cfg, f.opts, m, 30, 5, 10*sec, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("no bid met the target: %+v", sweep)
	}
	if best.FinishProb < 0.9 {
		t.Fatalf("best bid misses target: %+v", best)
	}
	if onDemand := cloud.CostLinear(f.opts.Cluster.Type, f.opts.Cluster.Nodes, sec); best.ExpectedCost >= onDemand {
		t.Fatalf("spot expected cost %v not below on-demand %v", best.ExpectedCost, onDemand)
	}
	if len(sweep) < 5 {
		t.Fatalf("sweep too small: %d", len(sweep))
	}
}

func TestOptimizeBidImpossibleTarget(t *testing.T) {
	f := newFixture(t)
	// A one-minute horizon for minutes of work: nothing can finish.
	_, ok, _, err := OptimizeBid(f.sess, f.wl.Prog, f.cfg, f.opts, market(), 10, 5, 60, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("impossible target reported as met")
	}
}
