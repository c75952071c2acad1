// Package spot implements the paper's stated follow-on direction:
// deploying Cumulon workloads on market-priced (spot) instances, where
// capacity is rented by bidding against a fluctuating price and the
// cluster is evicted whenever the market rises above the bid.
//
// A seeded mean-reverting price process with occasional spikes generates
// spot-price traces for a machine type: prices hover well below the
// on-demand price, as in real markets, but spike above it. While the
// price is at or below the bid, the program runs on the engine with a
// checkpoint at every iteration boundary, into a store that survives
// eviction (durable storage, not instance-local disk). The first price
// step above the bid is the engine's kill-program time, so everything
// since the newest checkpoint written by then is lost. Once the price
// falls back to the bid, the program resumes from that checkpoint. Cost
// accrues at the spot price per second while running, checkpoint writes
// included; waiting is free.
//
// A Monte Carlo estimator turns this into expected cost and
// deadline-hit probability as functions of the bid — the inputs a bid
// optimizer needs.
package spot

import (
	"errors"
	"math"
	"math/rand"

	"cumulon/internal/chaos"
	"cumulon/internal/ckpt"
	"cumulon/internal/core"
	"cumulon/internal/exec"
	"cumulon/internal/lang"
	"cumulon/internal/plan"
)

// Market parameterizes the spot price process for one machine type.
type Market struct {
	// OnDemand is the fixed on-demand price per hour (the bid ceiling
	// that always wins).
	OnDemand float64
	// Mean is the long-run average spot price per hour (typically
	// 25-40% of on-demand).
	Mean float64
	// Vol is the per-step relative volatility of the process.
	Vol float64
	// SpikeProb is the per-step probability of a demand spike that
	// pushes the price above on-demand.
	SpikeProb float64
	// SpikeMul scales the spike height relative to on-demand.
	SpikeMul float64
	// StepSec is the price-change granularity in seconds.
	StepSec float64
}

// DefaultMarket returns a market calibrated to the given on-demand price
// with typical 2013-era spot statistics.
func DefaultMarket(onDemand float64) Market {
	return Market{
		OnDemand:  onDemand,
		Mean:      0.35 * onDemand,
		Vol:       0.08,
		SpikeProb: 0.004,
		SpikeMul:  1.5,
		StepSec:   60,
	}
}

// Trace generates a price trace covering durationSec seconds (one entry
// per step), deterministically from seed.
func (m Market) Trace(durationSec float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, int(math.Ceil(durationSec/m.StepSec))+1)
	price := m.Mean
	spikeLeft := 0
	for i := range out {
		if spikeLeft > 0 {
			spikeLeft--
		} else if rng.Float64() < m.SpikeProb {
			// Spikes last a few steps.
			spikeLeft = 3 + rng.Intn(10)
		}
		// Mean reversion plus noise, floored at a tenth of the mean.
		price = math.Max(price+(0.2*(m.Mean-price)+m.Vol*m.Mean*rng.NormFloat64()), 0.1*m.Mean)
		out[i] = price
		if spikeLeft > 0 {
			out[i] = m.OnDemand * m.SpikeMul * (1 + 0.2*rng.Float64())
		}
	}
	return out
}

// runner runs one program's spot segments on the engine. A segment from
// a resume point to the end is the same deterministic run every time, so
// each finished run is kept by its resume point's virtual clock and
// reused instead of run again.
type runner struct {
	sess *core.Session
	prog *lang.Program
	cfg  plan.Config
	opts core.ExecOptions
	done map[float64]*core.ExecResult
}

func newRunner(sess *core.Session, prog *lang.Program, cfg plan.Config, opts core.ExecOptions) *runner {
	return &runner{sess, prog, cfg, opts, map[float64]*core.ExecResult{}}
}

// clockStore is one trial's checkpoint store. Its clock is the virtual
// time of the newest checkpoint saved, where the next segment resumes.
type clockStore struct {
	ckpt.Store
	clock float64
}

func (s *clockStore) Save(c *ckpt.Checkpoint) error {
	s.clock = c.Manifest.ClockSec
	return s.Store.Save(c)
}

// segment runs the program from st's newest checkpoint with the cluster
// evicted at virtual time killAt, and returns the run if it finished
// first (nil if evicted).
func (r *runner) segment(st *clockStore, killAt float64) (*core.ExecResult, error) {
	from := st.clock
	if res := r.done[from]; res != nil && res.Metrics.TotalSeconds <= killAt {
		return res, nil
	}
	opts, sched := r.opts, chaos.Schedule{}
	if opts.Chaos != nil {
		sched = *opts.Chaos
	}
	sched.KillProgramAt = killAt
	opts.Chaos, opts.CheckpointStore, opts.CheckpointEvery, opts.Resume = &sched, st, 1, true
	res, err := r.sess.Run(r.prog, r.cfg, opts)
	if errors.As(err, new(*exec.ProgramKilled)) {
		return nil, nil
	}
	if err == nil {
		r.done[from] = res
	}
	return res, err
}

// trial is one spot execution of the program under one price trace.
type trial struct {
	final     *core.ExecResult // the run that finished; nil if none did
	cost      float64          // dollars accrued
	evictions int
}

// trial runs the program under the price trace drawn from seed, bidding
// bid per instance-hour and giving up at horizonSec.
func (r *runner) trial(m Market, bid float64, seed int64, horizonSec float64) (trial, error) {
	trace := m.Trace(horizonSec, seed)
	at := func(i int) float64 { return math.Min(float64(i)*m.StepSec, horizonSec) }
	st := &clockStore{Store: ckpt.NewMemStore()}
	var tr trial
	for i := 0; at(i) < horizonSec; i++ {
		if trace[i] > bid {
			continue // wait (free) until the market drops to the bid
		}
		j := i // the step that evicts, or the horizon
		for at(j) < horizonSec && trace[j] <= bid {
			j++
		}
		from := st.clock
		res, err := r.segment(st, from+at(j)-at(i))
		if err != nil {
			return tr, err
		}
		tr.final = res
		end := at(j)
		if res != nil {
			end = at(i) + res.Metrics.TotalSeconds - from
		}
		for k := i; at(k) < end; k++ {
			tr.cost += float64(r.opts.Cluster.Nodes) * trace[k] * (math.Min(at(k+1), end) - at(k)) / 3600
		}
		if res != nil {
			return tr, nil
		}
		if at(j) < horizonSec {
			tr.evictions++
		}
		i = j // step j is the price above the bid: wait from j+1
	}
	return tr, nil
}

// Estimate aggregates Monte Carlo simulations.
type Estimate struct {
	Bid          float64
	ExpectedCost float64
	FinishProb   float64
	MeanEvicts   float64
}

func (r *runner) monteCarlo(market Market, bid float64, n int, seed int64, horizonSec float64) (Estimate, error) {
	if n <= 0 {
		n = 1
	}
	est := Estimate{Bid: bid}
	finished := 0
	for i := 0; i < n; i++ {
		o, err := r.trial(market, bid, seed+int64(i)*7919, horizonSec)
		if err != nil {
			return est, err
		}
		est.ExpectedCost += o.cost
		est.MeanEvicts += float64(o.evictions)
		if o.final != nil {
			finished++
		}
	}
	est.ExpectedCost /= float64(n)
	est.MeanEvicts /= float64(n)
	est.FinishProb = float64(finished) / float64(n)
	return est, nil
}

// OptimizeBid sweeps candidate bids and returns the estimate with the
// lowest expected cost among those meeting the target finish probability
// within the horizon, plus the full sweep for reporting. If no bid meets
// the target, the highest-probability bid is returned with ok=false.
func OptimizeBid(sess *core.Session, prog *lang.Program, cfg plan.Config, opts core.ExecOptions, market Market, trials int, seed int64, horizonSec, targetProb float64) (best Estimate, ok bool, sweep []Estimate, err error) {
	r := newRunner(sess, prog, cfg, opts)
	var fallback Estimate
	for _, b := range []float64{0.5 * market.Mean, market.Mean, 1.5 * market.Mean, 2 * market.Mean,
		0.8 * market.OnDemand, market.OnDemand, 1.5 * market.OnDemand, 2.5 * market.OnDemand} {
		e, err := r.monteCarlo(market, b, trials, seed, horizonSec)
		if err != nil {
			return best, false, sweep, err
		}
		sweep = append(sweep, e)
		if e.FinishProb > fallback.FinishProb ||
			(e.FinishProb == fallback.FinishProb && e.ExpectedCost < fallback.ExpectedCost) {
			fallback = e
		}
		if e.FinishProb >= targetProb && (!ok || e.ExpectedCost < best.ExpectedCost) {
			best, ok = e, true
		}
	}
	if !ok {
		return fallback, false, sweep, nil
	}
	return best, true, sweep, nil
}
