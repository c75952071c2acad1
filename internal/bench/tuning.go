package bench

import (
	"fmt"
	"math"

	"cumulon/internal/core"
	"cumulon/internal/lang"
	"cumulon/internal/plan"
	"cumulon/internal/workloads"
)

// E05SplitSweep reproduces the physical-parameter study: how the split of
// a single matrix-multiply job changes its running time, including the
// k-split tradeoff (parallelism vs aggregation pass).
func (s *Suite) E05SplitSweep() (*Result, error) {
	r := newResult("E05", "MatMul split sweep on 8 x m1.large (32768^2, tile 2048)",
		"split (ci,cj,ck)", "tasks", "seconds")
	cl := s.cluster(cmpType, 8, cmpSlots)
	w := workloads.MatMul(32768, 32768, 32768)

	type point struct {
		split plan.Split
		secs  float64
	}
	var points []point
	run := func(sp plan.Split) error {
		pl, err := plan.Compile(w.Prog, plan.Config{TileSize: tileSize})
		if err != nil {
			return err
		}
		pl.Jobs[0].Split = sp
		res, err := s.Sess.ExecutePlan(pl, cl, core.ExecOptions{Seed: s.Seed})
		if err != nil {
			return err
		}
		points = append(points, point{sp, res.Metrics.TotalSeconds})
		r.Table.AddRow(sp.String(), d0(sp.Tasks()), f1(res.Metrics.TotalSeconds))
		return nil
	}
	// Part A: square output splits with ck=1.
	for _, c := range []int{1, 2, 4, 8, 16} {
		if err := run(plan.Split{CI: c, CJ: c, CK: 1}); err != nil {
			return nil, err
		}
	}
	best := math.Inf(1)
	var bestSplit plan.Split
	for _, p := range points {
		if p.secs < best {
			best = p.secs
			bestSplit = p.split
		}
	}
	r.Checks["best"] = best
	r.Checks["serial"] = points[0].secs
	r.Table.Notes = fmt.Sprintf("optimum %v: %.1fs (serial %.1fs)", bestSplit, best, points[0].secs)

	// Part B: the k-split tradeoff on a skinny product Wᵀ·V whose output
	// grid (1 x 16 tiles) cannot fill the cluster: ck > 1 buys
	// parallelism, large ck drowns in partial-result I/O — an interior
	// optimum (the tradeoff Cumulon's aggregation jobs manage).
	skinny, err := lang.Parse(`
input W 131072 2048
input V 131072 32768
C = W' * V
output C
`)
	if err != nil {
		return nil, err
	}
	r2rows := make([]point, 0, 6)
	for _, ck := range []int{1, 2, 4, 8, 16, 32} {
		pl, err := plan.Compile(skinny, plan.Config{TileSize: tileSize})
		if err != nil {
			return nil, err
		}
		sp := plan.Split{CI: 1, CJ: 16, CK: ck}
		pl.Jobs[0].Split = sp
		res, err := s.Sess.ExecutePlan(pl, s.cluster(cmpType, cmpNodes, cmpSlots), core.ExecOptions{Seed: s.Seed})
		if err != nil {
			return nil, err
		}
		r2rows = append(r2rows, point{sp, res.Metrics.TotalSeconds})
		r.Table.AddRow("skinny "+sp.String(), d0(sp.Tasks()), f1(res.Metrics.TotalSeconds))
	}
	bestCk, bestCkTime := 1, math.Inf(1)
	for _, p := range r2rows {
		if p.secs < bestCkTime {
			bestCkTime = p.secs
			bestCk = p.split.CK
		}
	}
	r.Checks["skinny:ck1"] = r2rows[0].secs
	r.Checks["skinny:ck32"] = r2rows[len(r2rows)-1].secs
	r.Checks["skinny:bestCk"] = float64(bestCk)
	r.Checks["skinny:best"] = bestCkTime
	return r, nil
}

// E06SlotSweep reproduces the configuration study: time versus task slots
// per node. CPU-bound jobs want slots >= cores; I/O contention pushes
// back, yielding an interior optimum.
func (s *Suite) E06SlotSweep() (*Result, error) {
	r := newResult("E06", "Slots per node sweep on 8 x m1.xlarge (GNMF 40000x20000)",
		"slots", "gnmf s", "matmul s")
	gn := workloads.GNMF(40000, 20000, 10, 1, 0.05)
	mmw := workloads.MatMul(16384, 16384, 16384)
	var gnTimes, mmTimes []float64
	for slots := 1; slots <= 8; slots++ {
		cl := s.cluster("m1.xlarge", 8, slots)
		gm, err := s.runVirtual(gn.Prog, plan.Config{TileSize: tileSize, Densities: gn.Densities}, cl)
		if err != nil {
			return nil, err
		}
		mm, err := s.runVirtual(mmw.Prog, plan.Config{TileSize: tileSize}, cl)
		if err != nil {
			return nil, err
		}
		gnTimes = append(gnTimes, gm.TotalSeconds)
		mmTimes = append(mmTimes, mm.TotalSeconds)
		r.Table.AddRow(d0(slots), f1(gm.TotalSeconds), f1(mm.TotalSeconds))
	}
	bestSlot := 1
	for i, t := range mmTimes {
		if t < mmTimes[bestSlot-1] {
			bestSlot = i + 1
		}
	}
	r.Checks["bestSlots:matmul"] = float64(bestSlot)
	r.Checks["t1:matmul"] = mmTimes[0]
	r.Checks["tbest:matmul"] = mmTimes[bestSlot-1]
	bestGn := 1
	for i, t := range gnTimes {
		if t < gnTimes[bestGn-1] {
			bestGn = i + 1
		}
	}
	r.Checks["bestSlots:gnmf"] = float64(bestGn)
	r.Table.Notes = "m1.xlarge has 4 cores; the optimum sits at or above the core count"
	return r, nil
}
