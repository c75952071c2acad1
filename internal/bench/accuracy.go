package bench

import (
	"fmt"

	"cumulon/internal/cloud"
	"cumulon/internal/core"
	"cumulon/internal/model"
	"cumulon/internal/obs"
	"cumulon/internal/plan"
	"cumulon/internal/sim"
	"cumulon/internal/workloads"
)

// E07TaskModelAccuracy reproduces the task-level model validation: fit
// task-time models per machine type on the calibration suite, then
// evaluate them on held-out runs (different seed, different workload).
func (s *Suite) E07TaskModelAccuracy() (*Result, error) {
	r := newResult("E07", "Task-time model accuracy (held-out workloads)",
		"machine", "slots", "obs", "holdout tasks", "mean rel err")
	for _, name := range []string{"m1.small", "m1.large", "c1.xlarge"} {
		mt, err := cloud.TypeByName(name)
		if err != nil {
			return nil, err
		}
		slots := mt.Cores
		cal, err := model.Calibrate(mt, slots, s.Seed)
		if err != nil {
			return nil, err
		}
		// Holdout: a workload the calibration suite never runs, on a
		// different cluster size and seed.
		cl, err := cloud.NewCluster(mt, 6, slots)
		if err != nil {
			return nil, err
		}
		w := workloads.GNMF(30000, 15000, 10, 1, 0.05)
		res, err := s.Sess.Run(w.Prog, plan.Config{TileSize: tileSize, Densities: w.Densities},
			core.ExecOptions{Cluster: cl, Seed: s.Seed + 999})
		if err != nil {
			return nil, err
		}
		holdout := model.AppendObs(nil, res.Metrics.Tasks)
		mre := model.MeanRelError(cal.Model, holdout)
		r.Table.AddRow(name, d0(slots), d0(cal.Model.N), d0(len(holdout)), f3(mre))
		r.Checks["mre:"+name] = mre
	}
	r.Table.Notes = "paper-style validation: errors around the straggler noise level (~10%)"
	return r, nil
}

// E08SimAccuracy reproduces the program-level model validation: the
// optimizer's simulator predictions versus actual engine runs, across
// cluster sizes. Both sides record span traces, so beyond the end-to-end
// relative error the comparison is structural: obs.DiffTraces aligns the
// predicted and executed job spans by job id and reports the worst
// per-job error, catching compensating mispredictions a matching total
// would hide.
func (s *Suite) E08SimAccuracy() (*Result, error) {
	r := newResult("E08", "Simulator vs engine: GNMF program time across cluster sizes",
		"nodes", "predicted s", "actual s", "rel err", "worst job rel err")
	mt, err := cloud.TypeByName(cmpType)
	if err != nil {
		return nil, err
	}
	tm, err := s.Sess.Optimizer().ModelFor(mt, cmpSlots)
	if err != nil {
		return nil, err
	}
	w := workloads.GNMF(40000, 20000, 10, 1, 0.02)
	cfg := plan.Config{TileSize: tileSize, Densities: w.Densities}
	worst := 0.0
	worstJob := 0.0
	for _, nodes := range []int{2, 4, 8, 16, 32} {
		cl := s.cluster(cmpType, nodes, cmpSlots)
		pl, err := plan.Compile(w.Prog, cfg)
		if err != nil {
			return nil, err
		}
		pl.AutoSplit(cl.TotalSlots())
		predTrace := obs.NewTrace()
		p := sim.New(tm, cl)
		p.Rec = predTrace
		pred := p.PredictPlan(pl)
		actTrace := obs.NewTrace()
		m, err := s.runVirtualRec(w.Prog, cfg, cl, actTrace)
		if err != nil {
			return nil, err
		}
		rel := abs(pred-m.TotalSeconds) / m.TotalSeconds
		if rel > worst {
			worst = rel
		}
		d, err := obs.DiffTraces(actTrace, predTrace)
		if err != nil {
			return nil, err
		}
		if d.WorstJobRelErr > worstJob {
			worstJob = d.WorstJobRelErr
		}
		r.Table.AddRow(d0(nodes), f1(pred), f1(m.TotalSeconds), f3(rel), f3(d.WorstJobRelErr))
		r.Checks[fmt.Sprintf("rel:%d", nodes)] = rel
		r.Checks[fmt.Sprintf("jobworst:%d", nodes)] = d.WorstJobRelErr
	}
	r.Checks["worst"] = worst
	r.Checks["jobworst"] = worstJob
	return r, nil
}

// E09Speedup reproduces the scalability study: program time versus
// cluster size for GNMF and RSVD, with speedup and parallel efficiency.
func (s *Suite) E09Speedup() (*Result, error) {
	r := newResult("E09", "Scalability: time vs cluster size (m1.large)",
		"nodes", "gnmf s", "gnmf speedup", "rsvd s", "rsvd speedup")
	gn := workloads.GNMF(200000, 100000, 10, 1, 0.05)
	rs := workloads.RSVD(65536, 16384, 256, 1)
	sizes := []int{2, 4, 8, 16, 32}
	var gnBase, rsBase float64
	for i, nodes := range sizes {
		cl := s.cluster(cmpType, nodes, cmpSlots)
		gm, err := s.runVirtual(gn.Prog, plan.Config{TileSize: tileSize, Densities: gn.Densities}, cl)
		if err != nil {
			return nil, err
		}
		rm, err := s.runVirtual(rs.Prog, plan.Config{TileSize: tileSize}, cl)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			gnBase, rsBase = gm.TotalSeconds, rm.TotalSeconds
		}
		gnSp := gnBase / gm.TotalSeconds
		rsSp := rsBase / rm.TotalSeconds
		r.Table.AddRow(d0(nodes), f1(gm.TotalSeconds), f2(gnSp), f1(rm.TotalSeconds), f2(rsSp))
		r.Checks[fmt.Sprintf("gnmf:%d", nodes)] = gm.TotalSeconds
		r.Checks[fmt.Sprintf("rsvdSpeedup:%d", nodes)] = rsSp
	}
	r.Table.Notes = "speedup relative to 2 nodes; sublinear due to job startup and I/O replication"
	return r, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// E21Distribution validates the probabilistic simulator: Monte Carlo
// completion-time percentiles versus the engine's empirical distribution
// over independent runs, plus the premium a 95%-confidence deadline
// promise costs over the point-estimate optimum.
func (s *Suite) E21Distribution() (*Result, error) {
	r := newResult("E21", "Probabilistic prediction: percentiles vs empirical runs (GNMF, 8 x m1.large)",
		"quantity", "predicted", "empirical (20 runs)")
	mt, err := cloud.TypeByName(cmpType)
	if err != nil {
		return nil, err
	}
	tm, err := s.Sess.Optimizer().ModelFor(mt, cmpSlots)
	if err != nil {
		return nil, err
	}
	cl := s.cluster(cmpType, 8, cmpSlots)
	w := workloads.GNMF(40000, 20000, 10, 1, 0.02)
	cfg := plan.Config{TileSize: tileSize, Densities: w.Densities}

	pl, err := plan.Compile(w.Prog, cfg)
	if err != nil {
		return nil, err
	}
	pl.AutoSplit(cl.TotalSlots())
	dist := sim.New(tm, cl).PredictPlanDistribution(pl, 80, s.Seed)

	var times []float64
	for seed := int64(0); seed < 20; seed++ {
		res, err := s.Sess.Run(w.Prog, cfg, core.ExecOptions{Cluster: cl, Seed: 1000 + seed})
		if err != nil {
			return nil, err
		}
		times = append(times, res.Metrics.TotalSeconds)
	}
	sortFloats(times)
	empP50 := times[len(times)/2]
	empP95 := times[int(0.95*float64(len(times)))]

	r.Table.AddRow("median s", f1(dist.P50), f1(empP50))
	r.Table.AddRow("p95 s", f1(dist.P95), f1(empP95))
	r.Checks["p50rel"] = abs(dist.P50-empP50) / empP50
	r.Checks["p95rel"] = abs(dist.P95-empP95) / empP95

	// Confidence premium on a deadline halfway down the frontier.
	req := s.optRequest(w, 16)
	req.DeadlineSec = empP50 * 1.5
	point, err := s.Sess.Optimizer().MinCostForDeadline(req)
	if err != nil {
		return nil, err
	}
	req.Confidence = 0.95
	req.Trials = 20
	conf, err := s.Sess.Optimizer().MinCostForDeadline(req)
	if err != nil {
		return nil, err
	}
	if point.Met && conf.Met {
		r.Table.AddRow("deadline cost $ (point)", f2(point.Best.Cost), "-")
		r.Table.AddRow("deadline cost $ (95% conf)", f2(conf.Best.Cost), "-")
		r.Checks["confPremium"] = conf.Best.Cost / point.Best.Cost
	}
	r.Table.Notes = "residual-resampling simulation; confidence promises cost at most a deployment step more"
	return r, nil
}

func sortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		for k := i; k > 0 && v[k] < v[k-1]; k-- {
			v[k], v[k-1] = v[k-1], v[k]
		}
	}
}
