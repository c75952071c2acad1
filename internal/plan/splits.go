package plan

import (
	"math"

	"cumulon/internal/lang"
)

// BareLeaf reports whether e is a single (possibly transposed) leaf
// reference and returns its binding.
func BareLeaf(e lang.Expr, leaves map[string]LeafRef) (LeafRef, bool) {
	v, ok := e.(lang.Var)
	if !ok {
		return LeafRef{}, false
	}
	ref, ok := leaves[v.Name]
	return ref, ok
}

// AutoSplit assigns a reasonable split to every job of the plan for a
// cluster with the given total number of task slots. It is the engine's
// default when no optimizer has refined the plan: aim for a few waves of
// tasks per job, keep tasks square-ish, and only split the inner dimension
// when the output grid alone cannot occupy the cluster (the typical case
// for the skinny products of statistical workloads, e.g. Wᵀ·V with few
// columns). The cost-based optimizer in package opt sweeps splits per job
// and will generally improve on this.
func (p *Plan) AutoSplit(totalSlots int) {
	if totalSlots < 1 {
		totalSlots = 1
	}
	for _, j := range p.Jobs {
		j.Split = autoSplitJob(j, totalSlots)
	}
}

func autoSplitJob(j *Job, totalSlots int) Split {
	it, jt := j.ITiles(), j.JTiles()
	target := 3 * totalSlots
	if it*jt < target {
		target = it * jt
	}
	if target < 1 {
		target = 1
	}
	ci, cj := factorGrid(it, jt, target)
	s := Split{CI: ci, CJ: cj, CK: 1}
	if j.Kind == MulKind && j.MaskLeaf == "" {
		kt := j.KTiles()
		// If the output grid cannot comfortably fill the cluster, recover
		// parallelism along K at the price of an aggregation pass.
		if ci*cj < 2*totalSlots && kt > 1 {
			ck := ceilDiv(2*totalSlots, ci*cj)
			if ck > kt {
				ck = kt
			}
			s.CK = ck
		}
	}
	return s
}

// factorGrid picks (ci, cj) with ci <= it, cj <= jt and ci*cj close to
// target, shaped like the tile grid so task chunks stay square-ish.
func factorGrid(it, jt, target int) (int, int) {
	if target >= it*jt {
		return it, jt
	}
	// Ideal real-valued solution: ci/cj = it/jt, ci*cj = target.
	ci := int(math.Round(math.Sqrt(float64(target) * float64(it) / float64(jt))))
	if ci < 1 {
		ci = 1
	}
	if ci > it {
		ci = it
	}
	cj := ceilDiv(target, ci)
	if cj < 1 {
		cj = 1
	}
	if cj > jt {
		cj = jt
		ci = ceilDiv(target, cj)
		if ci > it {
			ci = it
		}
	}
	return ci, cj
}

// AppendSplitCandidates appends the split space of one job to dst, bounded
// by the job's tile grid and a cap on the number of tasks, and returns the
// extended slice, so a sweep that reuses dst allocates nothing. The optimizer
// sweeps these; engines only ever need one. Factors are powers of two plus
// the grid bounds, which keeps the sweep small while covering the extremes.
func AppendSplitCandidates(dst []Split, j *Job, maxTasks int) []Split {
	var ia, ja, ka [64]int // an axis has <= 63 powers of two below its length, plus the length
	cis := axisCandidates(ia[:0], j.ITiles())
	cjs := axisCandidates(ja[:0], j.JTiles())
	cks := append(ka[:0], 1)
	if j.Kind == MulKind && j.MaskLeaf == "" {
		cks = axisCandidates(ka[:0], j.KTiles())
	}
	for _, ci := range cis {
		for _, cj := range cjs {
			for _, ck := range cks {
				s := Split{CI: ci, CJ: cj, CK: ck}
				if s.Tasks() <= maxTasks {
					dst = append(dst, s)
				}
			}
		}
	}
	return dst
}

// axisCandidates appends an axis's split factors to dst: the powers of two
// below n, then n.
func axisCandidates(dst []int, n int) []int {
	for v := 1; v < n; v *= 2 {
		dst = append(dst, v)
	}
	return append(dst, n)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
