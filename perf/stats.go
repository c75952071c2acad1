package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 < p < 1) of xs with the
// "exclusive" interpolation Python's statistics.quantiles uses, so the
// quartiles printed here match the ones the A/B protocol computes.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return s[0]
	}
	pos := p*float64(n+1) - 1 // 0-based position between order statistics
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(n-1) {
		return s[n-1]
	}
	lo := int(pos)
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// metric is one reported number. Q1, Q3 and N describe the samples the
// value summarizes; they are absent for exact counts and single readings. Raw
// is the reading before the host-speed correction, for the end-to-end times.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Raw   float64 `json:"raw,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// medianOf summarizes samples by their median and quartiles.
func medianOf(xs []float64, unit string) metric {
	return metric{Value: median(xs), Unit: unit, Q1: percentile(xs, 0.25), Q3: percentile(xs, 0.75), N: len(xs)}
}

// single is a metric read once (a count, or a ratio of totals).
func single(v float64, unit string) metric { return metric{Value: v, Unit: unit} }
