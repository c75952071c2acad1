// Package workloads provides the statistical analysis programs the
// evaluation exercises, expressed in Cumulon's input language:
//
//   - GNMF: Gaussian non-negative matrix factorization by multiplicative
//     updates, the canonical matrix workload of the Hadoop-ML literature
//     (factorizing a sparse ratings-style matrix V ≈ W·H);
//   - RSVD: the first stage of randomized SVD — a random projection
//     followed by power iterations, a chain of large products;
//   - Regression: linear least squares by batch gradient descent;
//   - MatMulChain: parameterized product chains for microbenchmarks.
//
// Each constructor returns a complete, validated program plus the sparse
// density hints the planner needs. Iterations are unrolled: Cumulon
// optimizes and executes whole iterative programs as one plan.
package workloads

import (
	"fmt"

	"cumulon/internal/lang"
)

// Workload bundles a program with its planner hints and a human label.
type Workload struct {
	Name      string
	Prog      *lang.Program
	Densities map[string]float64
}

// GNMF builds `iters` multiplicative-update iterations of non-negative
// matrix factorization: V (m x n, sparse with the given density) is
// factorized as W (m x r) times H (r x n).
//
// Update rules (Lee & Seung):
//
//	H ← H ⊙ (Wᵀ V) ⊘ ((Wᵀ W) H)
//	W ← W ⊙ (V Hᵀ) ⊘ (W (H Hᵀ))
func GNMF(m, n, r, iters int, density float64) Workload {
	p := &lang.Program{
		Name: fmt.Sprintf("gnmf-%dx%dx%d-i%d", m, n, r, iters),
		Inputs: []lang.Input{
			{Name: "V", Rows: m, Cols: n, Sparse: true},
			{Name: "W", Rows: m, Cols: r},
			{Name: "H", Rows: r, Cols: n},
		},
		Outputs: []string{"W", "H"},
	}
	for i := 0; i < iters; i++ {
		p.Stmts = append(p.Stmts,
			assign("H", "H .* (W' * V) ./ ((W' * W) * H)"),
			assign("W", "W .* (V * H') ./ (W * (H * H'))"),
		)
		p.Boundaries = append(p.Boundaries, len(p.Stmts))
	}
	return Workload{Name: p.Name, Prog: p, Densities: map[string]float64{"V": density}}
}

// GNMFKL builds `iters` multiplicative-update iterations of NMF under the
// KL (I-divergence) objective, in Lee & Seung's Jacobi form: both factor
// updates use the quotient matrix V ⊘ (W H) evaluated at the *same* W and
// H, so the product W*H appears twice per iteration with identical
// operand versions. U is the all-ones matrix supplying the column/row
// sums of the denominators. The repeated product makes this the honest
// exercise for the cross-statement CSE pass (the Gaussian variant's
// products all differ once a factor is updated in place):
//
//	Hn ← H ⊙ (Wᵀ (V ⊘ (W H))) ⊘ (Wᵀ U)
//	W  ← W ⊙ ((V ⊘ (W H)) Hᵀ) ⊘ (U Hᵀ)
//	H  ← Hn
func GNMFKL(m, n, r, iters int, density float64) Workload {
	p := &lang.Program{
		Name: fmt.Sprintf("gnmf-kl-%dx%dx%d-i%d", m, n, r, iters),
		Inputs: []lang.Input{
			{Name: "V", Rows: m, Cols: n, Sparse: true},
			{Name: "W", Rows: m, Cols: r},
			{Name: "H", Rows: r, Cols: n},
			{Name: "U", Rows: m, Cols: n},
		},
		Outputs: []string{"W", "H"},
	}
	for i := 0; i < iters; i++ {
		p.Stmts = append(p.Stmts,
			assign("Hn", "H .* (W' * (V ./ (W * H))) ./ (W' * U)"),
			assign("W", "W .* ((V ./ (W * H)) * H') ./ (U * H')"),
			assign("H", "Hn"),
		)
		p.Boundaries = append(p.Boundaries, len(p.Stmts))
	}
	return Workload{Name: p.Name, Prog: p, Densities: map[string]float64{"V": density}}
}

// RSVD builds the sketching stage of randomized SVD for A (m x n) with a
// target rank k and `power` power iterations:
//
//	B ← A Ω;  repeat power times: B ← A (Aᵀ B)
//
// The output B spans (approximately) the dominant column space of A.
func RSVD(m, n, k, power int) Workload {
	p := &lang.Program{
		Name: fmt.Sprintf("rsvd-%dx%d-k%d-p%d", m, n, k, power),
		Inputs: []lang.Input{
			{Name: "A", Rows: m, Cols: n},
			{Name: "Omega", Rows: n, Cols: k},
		},
		Outputs: []string{"B"},
	}
	p.Stmts = append(p.Stmts, assign("B", "A * Omega"))
	p.Boundaries = append(p.Boundaries, len(p.Stmts))
	for i := 0; i < power; i++ {
		p.Stmts = append(p.Stmts, assign("B", "A * (A' * B)"))
		p.Boundaries = append(p.Boundaries, len(p.Stmts))
	}
	return Workload{Name: p.Name, Prog: p}
}

// Regression builds `iters` batch gradient-descent steps for linear least
// squares: X (n x d), y (n x 1), weights w (d x 1), learning rate alpha:
//
//	w ← w - α Xᵀ (X w - y)
func Regression(n, d, iters int, alpha float64) Workload {
	p := &lang.Program{
		Name: fmt.Sprintf("regression-%dx%d-i%d", n, d, iters),
		Inputs: []lang.Input{
			{Name: "X", Rows: n, Cols: d},
			{Name: "y", Rows: n, Cols: 1},
			{Name: "w", Rows: d, Cols: 1},
		},
		Outputs: []string{"w"},
	}
	for i := 0; i < iters; i++ {
		p.Stmts = append(p.Stmts, assign("w", fmt.Sprintf("w - %g * (X' * (X * w - y))", alpha)))
		p.Boundaries = append(p.Boundaries, len(p.Stmts))
	}
	return Workload{Name: p.Name, Prog: p}
}

// MatMulChain builds a single product chain over matrices with boundary
// dimensions dims: M0 (dims[0] x dims[1]) * M1 (dims[1] x dims[2]) * ...
func MatMulChain(dims []int) Workload {
	if len(dims) < 3 {
		panic("workloads: chain needs at least two factors")
	}
	p := &lang.Program{
		Name:    fmt.Sprintf("chain-%d", len(dims)-1),
		Outputs: []string{"C"},
	}
	expr := ""
	for i := 0; i+1 < len(dims); i++ {
		name := fmt.Sprintf("M%d", i)
		p.Inputs = append(p.Inputs, lang.Input{Name: name, Rows: dims[i], Cols: dims[i+1]})
		if i > 0 {
			expr += " * "
		}
		expr += name
	}
	p.Stmts = append(p.Stmts, assign("C", expr))
	return Workload{Name: p.Name, Prog: p}
}

// PageRank builds `iters` power iterations of PageRank over a sparse
// column-stochastic transition matrix P (n x n, with the given density):
//
//	x ← α P x + (1-α) v
//
// where v is the uniform teleport vector. Convergence to the stationary
// distribution is geometric with rate α.
func PageRank(n, iters int, density, alpha float64) Workload {
	p := &lang.Program{
		Name: fmt.Sprintf("pagerank-%d-i%d", n, iters),
		Inputs: []lang.Input{
			{Name: "P", Rows: n, Cols: n, Sparse: true},
			{Name: "x", Rows: n, Cols: 1},
			{Name: "v", Rows: n, Cols: 1},
		},
		Outputs: []string{"x"},
	}
	for i := 0; i < iters; i++ {
		p.Stmts = append(p.Stmts,
			assign("x", fmt.Sprintf("%g * (P * x) + %g * v", alpha, 1-alpha)))
		p.Boundaries = append(p.Boundaries, len(p.Stmts))
	}
	return Workload{Name: p.Name, Prog: p, Densities: map[string]float64{"P": density}}
}

// MatMul builds the single square (or rectangular) product benchmark.
func MatMul(m, k, n int) Workload {
	p := &lang.Program{
		Name: fmt.Sprintf("matmul-%dx%dx%d", m, k, n),
		Inputs: []lang.Input{
			{Name: "A", Rows: m, Cols: k},
			{Name: "B", Rows: k, Cols: n},
		},
		Stmts:   []lang.Assign{assign("C", "A * B")},
		Outputs: []string{"C"},
	}
	return Workload{Name: p.Name, Prog: p}
}

func assign(name, src string) lang.Assign {
	e, err := lang.ParseExpr(src)
	if err != nil {
		panic(fmt.Sprintf("workloads: bad expression %q: %v", src, err))
	}
	return lang.Assign{Name: name, Expr: e}
}
