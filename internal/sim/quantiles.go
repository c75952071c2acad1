package sim

import (
	"math/rand"
	"sort"

	"cumulon/internal/cloud"
	"cumulon/internal/plan"
)

// Distribution summarizes a Monte Carlo completion-time estimate.
type Distribution struct {
	Mean   float64
	P50    float64
	P95    float64
	Trials int
}

// quantileOf returns the q-th (0..1) quantile of sorted samples. q is
// clamped into [0, 1] and empty input yields 0 rather than panicking.
func quantileOf(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	i := int(q * float64(len(samples)))
	if i >= len(samples) {
		i = len(samples) - 1
	}
	return samples[i]
}

// planSamples runs the Monte Carlo trials and returns the sorted
// completion-time samples: each trial schedules every task with a
// duration drawn as model-prediction times an empirical residual (the
// paper's simulation over measured task-time distributions).
func (p *Predictor) planSamples(pl *plan.Plan, trials int, seed int64) []float64 {
	if trials <= 0 {
		trials = 30
	}
	rng := rand.New(rand.NewSource(seed))
	samples := make([]float64, trials)
	residual := func() float64 { return p.Model.SampleResidual(rng.Float64()) }
	for t := 0; t < trials; t++ {
		total := 0.0
		for _, j := range pl.Jobs {
			total += cloud.JobStartupSec
			for _, ph := range p.profiles.Profile(j) {
				total += p.schedulePhase(ph, residual)
			}
		}
		samples[t] = total
	}
	sort.Float64s(samples)
	return samples
}

// PredictPlanDistribution estimates the completion-time distribution of
// the plan by Monte Carlo simulation. The result includes the median and
// the 95th percentile, so the optimizer can promise deadlines at a
// confidence level rather than in expectation.
func (p *Predictor) PredictPlanDistribution(pl *plan.Plan, trials int, seed int64) Distribution {
	samples := p.planSamples(pl, trials, seed)
	var sum float64
	for _, s := range samples {
		sum += s
	}
	d := Distribution{Trials: len(samples), Mean: sum / float64(len(samples))}
	d.P50 = quantileOf(samples, 0.50)
	d.P95 = quantileOf(samples, 0.95)
	return d
}

// PredictPlanQuantile returns the q-th (0..1) quantile of the Monte Carlo
// completion-time distribution, computed directly from the sorted trial
// samples: tail quantiles beyond 0.95 keep resolving (with enough trials)
// instead of clamping to P95.
func (p *Predictor) PredictPlanQuantile(pl *plan.Plan, trials int, seed int64, q float64) float64 {
	return quantileOf(p.planSamples(pl, trials, seed), q)
}
