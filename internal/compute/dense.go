package compute

import (
	"fmt"

	"cumulon/internal/lang"
	"cumulon/internal/linalg"
	"cumulon/internal/plan"
)

// Whole-matrix helpers: operator-at-a-time evaluation over linalg.Dense,
// row-striped across the backend's workers. The MapReduce baseline engine
// (package mapred) materializes values this way; routing it through the
// same Backend keeps a single copy of the kernels and gives the baseline
// the same parallel speedup. Every helper is deterministic: stripes write
// disjoint row ranges of the output and each row's arithmetic is
// independent of how the rows are striped.

// stripeCount picks how many row stripes to cut for a backend: a few per
// worker for balance, one for the sequential backend.
func stripeCount(b Backend) int {
	n := b.Workers()
	if n <= 1 {
		return 1
	}
	return 4 * n
}

// runStripes partitions rows into stripes and runs fn over each on the
// backend. fn must only write state disjoint per stripe.
func runStripes(b Backend, rows int, fn func(lo, hi int)) {
	spans := plan.PartitionAxis(rows, stripeCount(b))
	if len(spans) <= 1 {
		fn(0, rows)
		return
	}
	tasks := make([]*Task, len(spans))
	for i, sp := range spans {
		sp := sp
		tasks[i] = &Task{Fn: func(*Ctx) error {
			fn(sp.Lo, sp.Hi)
			return nil
		}}
	}
	fetch, release := b.RunBatch(tasks)
	defer release()
	for i := range tasks {
		// The stripe functions cannot fail; fetch only synchronizes.
		fetch(i) //nolint:errcheck
	}
}

// MulDense returns l * r.
func MulDense(b Backend, l, r *linalg.Dense) *linalg.Dense {
	if l.Cols != r.Rows {
		panic(fmt.Sprintf("compute: dense mul shape mismatch %dx%d * %dx%d", l.Rows, l.Cols, r.Rows, r.Cols))
	}
	out := linalg.NewDense(l.Rows, r.Cols)
	rt := linalg.NewTileFrom(r.Rows, r.Cols, r.Data)
	runStripes(b, l.Rows, func(lo, hi int) {
		lt := linalg.NewTileFrom(hi-lo, l.Cols, l.Data[lo*l.Cols:hi*l.Cols])
		ot := linalg.NewTileFrom(hi-lo, out.Cols, out.Data[lo*out.Cols:hi*out.Cols])
		linalg.Gemm(ot, lt, rt)
	})
	return out
}

// ZipDense returns f applied element-wise over the pair (l, r).
func ZipDense(b Backend, l, r *linalg.Dense, f func(x, y float64) float64) *linalg.Dense {
	if l.Rows != r.Rows || l.Cols != r.Cols {
		panic(fmt.Sprintf("compute: dense zip shape mismatch %dx%d vs %dx%d", l.Rows, l.Cols, r.Rows, r.Cols))
	}
	out := linalg.NewDense(l.Rows, l.Cols)
	runStripes(b, l.Rows, func(lo, hi int) {
		for i := lo * l.Cols; i < hi*l.Cols; i++ {
			out.Data[i] = f(l.Data[i], r.Data[i])
		}
	})
	return out
}

// MapDense returns f applied element-wise.
func MapDense(b Backend, x *linalg.Dense, f func(float64) float64) *linalg.Dense {
	out := linalg.NewDense(x.Rows, x.Cols)
	runStripes(b, x.Rows, func(lo, hi int) {
		for i := lo * x.Cols; i < hi*x.Cols; i++ {
			out.Data[i] = f(x.Data[i])
		}
	})
	return out
}

// ScaleDense returns s * x.
func ScaleDense(b Backend, x *linalg.Dense, s float64) *linalg.Dense {
	return MapDense(b, x, func(v float64) float64 { return s * v })
}

// TransposeDense returns xᵀ, striped over output rows (input columns).
func TransposeDense(b Backend, x *linalg.Dense) *linalg.Dense {
	out := linalg.NewDense(x.Cols, x.Rows)
	runStripes(b, out.Rows, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			for i := 0; i < x.Rows; i++ {
				out.Data[j*x.Rows+i] = x.Data[i*x.Cols+j]
			}
		}
	})
	return out
}

// ZipFunc maps a binary element-wise language node to its scalar kernel.
func ZipFunc(e lang.Expr) (func(x, y float64) float64, bool) {
	switch e.(type) {
	case lang.Add:
		return func(x, y float64) float64 { return x + y }, true
	case lang.Sub:
		return func(x, y float64) float64 { return x - y }, true
	case lang.ElemMul:
		return func(x, y float64) float64 { return x * y }, true
	case lang.ElemDiv:
		return func(x, y float64) float64 { return x / y }, true
	}
	return nil, false
}
