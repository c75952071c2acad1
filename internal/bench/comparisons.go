package bench

import (
	"fmt"

	"cumulon/internal/mapred"
	"cumulon/internal/plan"
	"cumulon/internal/workloads"
)

// Shared experiment parameters.
const (
	tileSize = 2048
	// The default comparison cluster, sized like the paper's mid-range
	// Hadoop deployments.
	cmpNodes = 16
	cmpSlots = 2
	cmpType  = "m1.large"
)

// paperWorkloads returns the paper-scale workload suite used across
// experiments (E02, E12).
func paperWorkloads() []workloads.Workload {
	return []workloads.Workload{
		workloads.GNMF(80000, 40000, 10, 1, 0.01),
		workloads.RSVD(100000, 20000, 256, 1),
		workloads.Regression(1000000, 1000, 1, 1e-6),
		workloads.MatMul(32768, 32768, 32768),
	}
}

// runMR executes a workload on the MapReduce baseline with matching
// cluster parameters.
func (s *Suite) runMR(w workloads.Workload, nodes int) (*mapred.RunMetrics, error) {
	e, err := mapred.New(mapred.Config{
		Cluster:     s.cluster(cmpType, nodes, cmpSlots),
		BlockSize:   tileSize,
		Seed:        s.Seed,
		NoiseFactor: 0.08,
		Recorder:    s.Recorder,
	})
	if err != nil {
		return nil, err
	}
	m, _, err := e.Run(w.Prog, w.Densities, nil)
	return m, err
}

// E03MatMulVsMR reproduces the headline engine comparison on dense matrix
// multiply: Cumulon's map-only fused execution versus MapReduce RMM/CPMM,
// as matrix size grows.
func (s *Suite) E03MatMulVsMR() (*Result, error) {
	r := newResult("E03", "Dense matmul: Cumulon vs MapReduce baselines (16 x m1.large)",
		"n", "cumulon s", "MR-RMM s", "MR-CPMM s", "MR-auto s", "speedup vs auto")
	cl := s.cluster(cmpType, cmpNodes, cmpSlots)
	for _, n := range []int{8192, 16384, 32768, 65536} {
		w := workloads.MatMul(n, n, n)
		m, err := s.runVirtual(w.Prog, plan.Config{TileSize: tileSize}, cl)
		if err != nil {
			return nil, err
		}
		var mrTimes [3]float64
		for i, strat := range []mapred.Strategy{mapred.RMM, mapred.CPMM, mapred.Auto} {
			e, err := mapred.New(mapred.Config{
				Cluster:     cl,
				BlockSize:   tileSize,
				Strategy:    strat,
				Seed:        s.Seed,
				NoiseFactor: 0.08,
			})
			if err != nil {
				return nil, err
			}
			mm, _, err := e.Run(w.Prog, nil, nil)
			if err != nil {
				return nil, err
			}
			mrTimes[i] = mm.TotalSeconds
		}
		speedup := mrTimes[2] / m.TotalSeconds
		r.Table.AddRow(d0(n), f1(m.TotalSeconds), f1(mrTimes[0]), f1(mrTimes[1]),
			f1(mrTimes[2]), f2(speedup))
		r.Checks[fmt.Sprintf("speedup:%d", n)] = speedup
	}
	r.Table.Notes = "speedup = MR-auto / Cumulon; expected >= 1.5x, growing with n"
	return r, nil
}

// E04GNMFVsMR reproduces the statistical-workload comparison: one GNMF
// iteration on growing sparse inputs, Cumulon vs the MapReduce baseline
// (the SystemML-style execution of the same update rules).
func (s *Suite) E04GNMFVsMR() (*Result, error) {
	r := newResult("E04", "GNMF (1 iteration): Cumulon vs MapReduce (16 x m1.large)",
		"m x n", "cumulon s", "cumulon jobs", "MR s", "MR jobs", "speedup")
	cl := s.cluster(cmpType, cmpNodes, cmpSlots)
	for _, m := range []int{20000, 40000, 80000} {
		n := m / 2
		w := workloads.GNMF(m, n, 10, 1, 0.05)
		cm, err := s.runVirtual(w.Prog, plan.Config{TileSize: tileSize, Densities: w.Densities}, cl)
		if err != nil {
			return nil, err
		}
		mm, err := s.runMR(w, cmpNodes)
		if err != nil {
			return nil, err
		}
		speedup := mm.TotalSeconds / cm.TotalSeconds
		r.Table.AddRow(fmt.Sprintf("%dx%d", m, n), f1(cm.TotalSeconds), d0(len(cm.Jobs)),
			f1(mm.TotalSeconds), d0(len(mm.Jobs)), f2(speedup))
		r.Checks[fmt.Sprintf("speedup:%d", m)] = speedup
		r.Checks[fmt.Sprintf("jobs:cumulon:%d", m)] = float64(len(cm.Jobs))
		r.Checks[fmt.Sprintf("jobs:mr:%d", m)] = float64(len(mm.Jobs))
	}
	r.Table.Notes = "Cumulon fuses each update into fewer jobs than one-job-per-operator MR"
	return r, nil
}
