package obs

import (
	"math"
	"strconv"
)

// LogBuckets returns fixed log-spaced histogram bounds spanning
// 10^minExp .. 10^maxExp with perDecade bounds per decade, each rounded
// to three significant digits so the rendered bound strings are short
// and byte-stable. The job service's latency histograms all share one
// such layout (LatencyBuckets), which keeps every tenant's series
// directly comparable and the Prometheus/JSON renderings deterministic.
func LogBuckets(minExp, maxExp, perDecade int) []float64 {
	if perDecade <= 0 {
		perDecade = 1
	}
	var out []float64
	for k := minExp * perDecade; k <= maxExp*perDecade; k++ {
		out = append(out, round3(math.Pow(10, float64(k)/float64(perDecade))))
	}
	return out
}

// round3 rounds to three significant digits: to the float64 nearest that
// decimal, so the bound renders as the decimal itself ("0.0215", "1e-05")
// and not as an arithmetic residue beside it.
func round3(v float64) float64 {
	r, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'e', 2, 64), 64)
	return r
}

// LatencyBuckets is the standard latency layout of the job service:
// 10µs to 1000s, three buckets per decade (…, 0.1, 0.215, 0.464, 1, …).
// Queue-wait, compile, run and end-to-end histograms all use it. The floor
// sits two decades under a millisecond because most of a job mix's stages
// do: with a 1ms first bucket the medians of a 2ms job's queue wait,
// compile and run all read as an interpolated 0.5ms, whatever they are.
var LatencyBuckets = LogBuckets(-5, 3, 3)

// QuantileFromBuckets estimates the q-quantile of a histogram from its
// bucket upper bounds and *cumulative* counts (len(cumulative) ==
// len(bounds)+1; the last entry is the +Inf bucket's total). The
// estimate interpolates linearly inside the target bucket, Prometheus
// histogram_quantile style: the true quantile is somewhere in the
// bucket, and a uniform within-bucket assumption is the standard
// answer.
//
// Boundary behavior: q clamps into [0, 1]; empty buckets are never the
// target (the rank is carried to the first bucket that actually holds
// samples), so q=0 returns the lower bound of the first nonempty bucket
// — the best lower estimate of the minimum — rather than a bound an
// empty first bucket would fabricate, and q=1 returns the upper bound
// of the last nonempty finite bucket without relying on the +Inf
// fallback. Returns 0 for an empty histogram; a rank held by the +Inf
// bucket returns the largest finite bound. HistSeries.Quantile shares
// this exact computation: cumulond's /v1/stats quantiles, which the load
// generator's SLO report reads, come from it, and a client that computes
// them from the /metrics.json buckets agrees with them at every boundary.
func QuantileFromBuckets(bounds []float64, cumulative []uint64, q float64) float64 {
	if len(cumulative) == 0 || len(cumulative) != len(bounds)+1 {
		return 0
	}
	total := cumulative[len(cumulative)-1]
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	prev := uint64(0)
	for i, ub := range bounds {
		cur := cumulative[i]
		// The target bucket must both reach the rank and be nonempty:
		// for any 0 < rank <= total the first bucket reaching it is
		// nonempty automatically, and for rank 0 the emptiness check is
		// what skips leading empty buckets instead of matching bucket 0
		// unconditionally.
		if cur > prev && float64(cur) >= rank {
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			return lo + (ub-lo)*(rank-float64(prev))/float64(cur-prev)
		}
		prev = cur
	}
	// Rank held by the +Inf bucket: the best bounded answer is the
	// largest finite bound.
	if len(bounds) == 0 {
		return 0
	}
	return bounds[len(bounds)-1]
}
