// Package model implements Cumulon's benchmarking-and-modeling layer: it
// runs micro-benchmarks on an instrumented engine to collect per-task
// observations, then fits linear task-time models
//
//	time ≈ β₀ + β₁·flops + β₂·diskBytes + β₃·netBytes
//
// by ordinary least squares, one model per (machine type, slot
// configuration). The optimizer's simulator consumes these models to
// predict job and program times on hypothetical deployments — the paper's
// "suite of benchmarking, simulation, modeling, and search techniques".
package model

import (
	"fmt"
	"math"
	"sort"
)

// Obs is one task observation: work profile and measured duration.
type Obs struct {
	Flops     int64
	DiskBytes int64 // local reads plus primary writes
	NetBytes  int64 // remote reads plus replica write traffic
	Seconds   float64
}

// TaskModel predicts task duration from the work profile.
type TaskModel struct {
	// Coefficients: intercept (startup), seconds per flop, per disk byte,
	// per network byte.
	B0, BFlops, BDisk, BNet float64
	// N is the number of observations the model was fitted on.
	N int
	// Residuals holds the sorted multiplicative residuals
	// (observed / predicted) of the fit. They are the empirical noise
	// distribution of task times — straggler tails included — which the
	// simulator resamples to predict completion-time *distributions*
	// rather than point estimates (the paper's simulation technique).
	Residuals []float64
}

// SampleResidual draws one multiplicative residual using the uniform
// variate u ∈ [0, 1). Models without residual data return 1.
func (m *TaskModel) SampleResidual(u float64) float64 {
	if len(m.Residuals) == 0 {
		return 1
	}
	i := int(u * float64(len(m.Residuals)))
	if i >= len(m.Residuals) {
		i = len(m.Residuals) - 1
	}
	return m.Residuals[i]
}

// Predict returns the predicted task duration in seconds. Negative
// predictions (possible with an imperfect fit near the origin) clamp to
// the intercept.
func (m *TaskModel) Predict(flops, diskBytes, netBytes int64) float64 {
	t := m.B0 + m.BFlops*float64(flops) + m.BDisk*float64(diskBytes) + m.BNet*float64(netBytes)
	if t < m.B0 {
		return m.B0
	}
	return t
}

// Terms returns the additive components of a predicted task duration:
// the intercept (startup), the flop term, the disk-byte term and the
// network-byte term. With the non-negative coefficients Fit produces,
// the four terms sum exactly to Predict; the optimizer's search
// telemetry records them so an EXPLAIN report can say *why* one
// deployment beats another (more compute, more network, more startup).
func (m *TaskModel) Terms(flops, diskBytes, netBytes int64) (b0, flopSec, diskSec, netSec float64) {
	return m.B0, m.BFlops * float64(flops), m.BDisk * float64(diskBytes), m.BNet * float64(netBytes)
}

func (m *TaskModel) String() string {
	return fmt.Sprintf("t = %.3f + %.3g*flops + %.3g*disk + %.3g*net (n=%d)",
		m.B0, m.BFlops, m.BDisk, m.BNet, m.N)
}

// Fit estimates a TaskModel from observations by ordinary least squares
// over the 4-parameter design, solving the normal equations directly.
// Non-negativity is enforced by clamping (the physical coefficients are
// rates; tiny negative estimates arise only from collinear designs).
func Fit(obs []Obs) (*TaskModel, error) {
	if len(obs) < 4 {
		return nil, fmt.Errorf("model: need at least 4 observations, got %d", len(obs))
	}
	// Scale features to comparable magnitudes for numerical stability.
	const fScale, bScale = 1e9, 1e8
	var xtx [4][4]float64
	var xty [4]float64
	for _, o := range obs {
		x := [4]float64{1, float64(o.Flops) / fScale, float64(o.DiskBytes) / bScale, float64(o.NetBytes) / bScale}
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				xtx[i][j] += x[i] * x[j]
			}
			xty[i] += x[i] * o.Seconds
		}
	}
	beta, err := solve4(xtx, xty)
	if err != nil {
		return nil, err
	}
	m := &TaskModel{
		B0:     math.Max(0, beta[0]),
		BFlops: math.Max(0, beta[1]/fScale),
		BDisk:  math.Max(0, beta[2]/bScale),
		BNet:   math.Max(0, beta[3]/bScale),
		N:      len(obs),
	}
	// Record the multiplicative residual distribution for probabilistic
	// simulation.
	m.Residuals = make([]float64, 0, len(obs))
	for _, o := range obs {
		pred := m.Predict(o.Flops, o.DiskBytes, o.NetBytes)
		if pred > 0 && o.Seconds > 0 {
			m.Residuals = append(m.Residuals, o.Seconds/pred)
		}
	}
	sort.Float64s(m.Residuals)
	return m, nil
}

// solve4 solves a 4x4 linear system by Gaussian elimination with partial
// pivoting. Singular designs (e.g. all-identical observations) error out.
func solve4(a [4][4]float64, b [4]float64) ([4]float64, error) {
	const n = 4
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-12 {
			return [4]float64{}, fmt.Errorf("model: singular design matrix (column %d)", col)
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		// Eliminate.
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	var x [4]float64
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * x[c]
		}
		x[r] = s / a[r][r]
	}
	return x, nil
}

// MeanRelError evaluates a model against held-out observations, returning
// the mean of |pred - actual| / actual.
func MeanRelError(m *TaskModel, obs []Obs) float64 {
	if len(obs) == 0 {
		return 0
	}
	var s float64
	for _, o := range obs {
		pred := m.Predict(o.Flops, o.DiskBytes, o.NetBytes)
		s += math.Abs(pred-o.Seconds) / o.Seconds
	}
	return s / float64(len(obs))
}
