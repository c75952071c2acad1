package bench

import (
	"fmt"
	"reflect"

	"cumulon/internal/chaos"
	"cumulon/internal/cloud"
	"cumulon/internal/core"
	"cumulon/internal/exec"
	"cumulon/internal/lang"
	"cumulon/internal/linalg"
	"cumulon/internal/plan"
	"cumulon/internal/spot"
	"cumulon/internal/workloads"
)

// E13ReorderAblation measures the value of matrix-chain reordering (one
// of the optimizer's logical rewrites): the same product chain executed
// as written (left-associated) versus re-parenthesized by the planner.
func (s *Suite) E13ReorderAblation() (*Result, error) {
	r := newResult("E13", "Ablation: matrix-chain reordering (16 x m1.large)",
		"chain", "as written s", "reordered s", "speedup")
	cl := s.cluster(cmpType, cmpNodes, cmpSlots)
	chains := []struct {
		label string
		dims  []int
	}{
		// M0 (tall-skinny) * M1 (skinny-wide) * M2 (wide-skinny): the
		// left-associated order materializes a dense 50k x 50k
		// intermediate; the optimal order never leaves the skinny space.
		{"50000x64x50000x16", []int{50000, 64, 50000, 16}},
		// A milder case: the wrong order costs ~4x the flops.
		{"20000x2048x20000x2048", []int{20000, 2048, 20000, 2048}},
	}
	for _, c := range chains {
		w := workloads.MatMulChain(c.dims)
		var times [2]float64
		for i, disable := range []bool{true, false} {
			m, err := s.runVirtual(w.Prog, plan.Config{TileSize: tileSize, DisableReorder: disable}, cl)
			if err != nil {
				return nil, err
			}
			times[i] = m.TotalSeconds
		}
		speedup := times[0] / times[1]
		r.Table.AddRow(c.label, f1(times[0]), f1(times[1]), f2(speedup))
		r.Checks["speedup:"+c.label] = speedup
	}
	r.Table.Notes = "reordering is free at compile time and can change the cost class of a chain"
	return r, nil
}

// E14FusionAblation measures the value of prologue/epilogue fusion into
// multiply jobs: GNMF compiled with fusion on versus one element-wise
// tree per job (the one-operator-per-job discipline of MR-era systems).
func (s *Suite) E14FusionAblation() (*Result, error) {
	r := newResult("E14", "Ablation: operator fusion on GNMF (16 x m1.large)",
		"m x n", "fused jobs", "fused s", "unfused jobs", "unfused s", "speedup")
	cl := s.cluster(cmpType, cmpNodes, cmpSlots)
	for _, m := range []int{20000, 80000} {
		w := workloads.GNMF(m, m/2, 10, 1, 0.05)
		fused, err := s.runVirtual(w.Prog,
			plan.Config{TileSize: tileSize, Densities: w.Densities}, cl)
		if err != nil {
			return nil, err
		}
		unfused, err := s.runVirtual(w.Prog,
			plan.Config{TileSize: tileSize, Densities: w.Densities, DisableFusion: true}, cl)
		if err != nil {
			return nil, err
		}
		speedup := unfused.TotalSeconds / fused.TotalSeconds
		r.Table.AddRow(fmt.Sprintf("%dx%d", m, m/2),
			d0(len(fused.Jobs)), f1(fused.TotalSeconds),
			d0(len(unfused.Jobs)), f1(unfused.TotalSeconds), f2(speedup))
		r.Checks[fmt.Sprintf("speedup:%d", m)] = speedup
		r.Checks[fmt.Sprintf("fusedJobs:%d", m)] = float64(len(fused.Jobs))
		r.Checks[fmt.Sprintf("unfusedJobs:%d", m)] = float64(len(unfused.Jobs))
	}
	// The epilogue-fusion case proper: D = C ⊙ (A·B) writes the product
	// straight through the element-wise combine; unfused, the full dense
	// product materializes to the DFS and is read back.
	// The outer-product shape (tiny K) makes the product cheap relative
	// to its output, so the avoided materialization dominates.
	ep, err := lang.Parse(`
input A 32768 64
input B 64 32768
input C 32768 32768
D = C .* (A * B)
output D
`)
	if err != nil {
		return nil, err
	}
	epFused, err := s.runVirtual(ep, plan.Config{TileSize: tileSize}, cl)
	if err != nil {
		return nil, err
	}
	epUnfused, err := s.runVirtual(ep, plan.Config{TileSize: tileSize, DisableFusion: true}, cl)
	if err != nil {
		return nil, err
	}
	epSpeedup := epUnfused.TotalSeconds / epFused.TotalSeconds
	r.Table.AddRow("epilogue outer-product",
		d0(len(epFused.Jobs)), f1(epFused.TotalSeconds),
		d0(len(epUnfused.Jobs)), f1(epUnfused.TotalSeconds), f2(epSpeedup))
	r.Checks["speedup:epilogue"] = epSpeedup
	r.Table.Notes = "fusion removes whole jobs (startup + materialization + re-reads)"
	return r, nil
}

// E15OverlapAblation measures the engine extension that schedules jobs as
// soon as their dependencies finish (instead of Hadoop-style global
// barriers), on RSVD — whose unrolled product chain leaves cluster slack
// at each job boundary — and on a two-branch program with genuinely
// independent jobs.
func (s *Suite) E15OverlapAblation() (*Result, error) {
	r := newResult("E15", "Ablation: barrier vs dependency-driven job scheduling",
		"workload", "barrier s", "overlap s", "speedup")
	branches, err := lang.Parse(`
input A 16384 16384
input B 16384 16384
C = A * B
D = B * A
E = C .* D
output E
`)
	if err != nil {
		return nil, err
	}
	cases := []struct {
		label string
		prog  *lang.Program
		cfg   plan.Config
	}{
		{"two-branch", branches, plan.Config{TileSize: tileSize}},
		{"rsvd", workloads.RSVD(32768, 16384, 256, 2).Prog, plan.Config{TileSize: tileSize}},
	}
	for _, c := range cases {
		var times [2]float64
		for i, overlap := range []bool{false, true} {
			pl, err := plan.Compile(c.prog, c.cfg)
			if err != nil {
				return nil, err
			}
			cl := s.cluster(cmpType, cmpNodes, cmpSlots)
			// Under-split so single jobs cannot saturate the cluster and
			// the barrier slack is visible.
			pl.AutoSplit(cl.TotalSlots() / 4)
			res, err := s.Sess.ExecutePlan(pl, cl, core.ExecOptions{Seed: s.Seed, OverlapJobs: overlap})
			if err != nil {
				return nil, err
			}
			times[i] = res.Metrics.TotalSeconds
		}
		speedup := times[0] / times[1]
		r.Table.AddRow(c.label, f1(times[0]), f1(times[1]), f2(speedup))
		r.Checks["speedup:"+c.label] = speedup
	}
	r.Table.Notes = "overlap helps when single jobs cannot saturate the cluster"
	return r, nil
}

// E16MaskedMultiply measures the masked-multiply operator: computing a
// low-rank product only at a sparse pattern's observed entries (the
// residual primitive of matrix factorization) versus computing the full
// dense product and masking afterwards, across pattern densities.
func (s *Suite) E16MaskedMultiply() (*Result, error) {
	r := newResult("E16", "Masked multiply vs full product (16 x m1.large, 65536x32768, rank 64)",
		"density", "masked s", "full s", "speedup")
	cl := s.cluster(cmpType, cmpNodes, cmpSlots)
	const m, n, k = 65536, 32768, 64
	fullProg, err := lang.Parse(fmt.Sprintf(`
input W %d %d
input H %d %d
R = W * H
output R
`, m, k, k, n))
	if err != nil {
		return nil, err
	}
	full, err := s.runVirtual(fullProg, plan.Config{TileSize: tileSize}, cl)
	if err != nil {
		return nil, err
	}
	for _, density := range []float64{0.001, 0.01, 0.05, 0.2} {
		maskedProg, err := lang.Parse(fmt.Sprintf(`
input V %d %d sparse
input W %d %d
input H %d %d
R = mask(V, W * H)
output R
`, m, n, m, k, k, n))
		if err != nil {
			return nil, err
		}
		masked, err := s.runVirtual(maskedProg,
			plan.Config{TileSize: tileSize, Densities: map[string]float64{"V": density}}, cl)
		if err != nil {
			return nil, err
		}
		speedup := full.TotalSeconds / masked.TotalSeconds
		r.Table.AddRow(fmt.Sprintf("%.3f", density), f1(masked.TotalSeconds),
			f1(full.TotalSeconds), f2(speedup))
		r.Checks[fmt.Sprintf("speedup:%g", density)] = speedup
	}
	r.Table.Notes = "masked cost scales with nnz(V), full cost with m*n; both also write very different output volumes"
	return r, nil
}

// E17SpotBidding evaluates the spot-market extension: expected cost and
// completion probability by bid for GNMF run on the engine under each
// price trace, evictions and checkpoint resumes included, vs on-demand.
func (s *Suite) E17SpotBidding() (*Result, error) {
	r := newResult("E17", "Spot instances: bid sweep for GNMF (16 x m1.large)",
		"bid $/h", "finish prob", "expected cost $", "mean evictions")
	cl := s.cluster(cmpType, cmpNodes, cmpSlots)
	w := workloads.GNMF(200000, 100000, 10, 2, 0.05)
	cfg := plan.Config{TileSize: tileSize, Densities: w.Densities}
	m, err := s.runVirtual(w.Prog, cfg, cl)
	if err != nil {
		return nil, err
	}
	market := spot.DefaultMarket(cl.Type.PricePerHour)
	horizon := m.TotalSeconds * 6
	opts := core.ExecOptions{Cluster: cl, Workers: s.Workers, Chaos: s.Chaos}
	best, ok, sweep, err := spot.OptimizeBid(s.Sess, w.Prog, cfg, opts, market, 40, s.Seed, horizon, 0.9)
	if err != nil {
		return nil, err
	}
	for _, e := range sweep {
		r.Table.AddRow(f3(e.Bid), f2(e.FinishProb), f2(e.ExpectedCost), f2(e.MeanEvicts))
	}
	onDemand := cloud.Cost(cl.Type, cl.Nodes, m.TotalSeconds)
	perSecond := cloud.CostLinear(cl.Type, cl.Nodes, m.TotalSeconds)
	r.Checks["onDemand"] = onDemand
	r.Checks["onDemandLinear"] = perSecond
	r.Checks["bestCost"] = best.ExpectedCost
	r.Checks["bestProb"] = best.FinishProb
	r.Checks["met"] = boolTo01(ok)
	r.Checks["lowProb"] = sweep[0].FinishProb
	r.Checks["highProb"] = sweep[len(sweep)-1].FinishProb
	r.Table.Notes = fmt.Sprintf("on-demand bill $%.2f hour-rounded, $%.2f per second; best qualifying bid $%.3f/h with expected cost $%.2f",
		onDemand, perSecond, best.Bid, best.ExpectedCost)
	return r, nil
}

// E18Locality studies data locality, the property Cumulon's scheduler and
// the HDFS substrate provide: the fraction of read bytes served
// node-locally as the replication factor grows, and the cost of an
// oversubscribed two-rack topology versus a flat network.
func (s *Suite) E18Locality() (*Result, error) {
	r := newResult("E18", "Locality and network topology (16 nodes, GNMF 80000x40000)",
		"configuration", "local %", "rack %", "remote %", "seconds")
	w := workloads.GNMF(80000, 40000, 10, 1, 0.05)
	cfg := plan.Config{TileSize: tileSize, Densities: w.Densities}

	type variant struct {
		label    string
		repl     int
		rackSize int
		penalty  float64
	}
	variants := []variant{
		{"replication 1", 1, 0, 1},
		{"replication 3", 3, 0, 1},
		{"replication 6", 6, 0, 1},
		{"2 racks, penalty 3", 3, 8, 3},
	}
	var flat3, racked float64
	var localFracs []float64
	for _, v := range variants {
		res, err := s.Sess.Run(w.Prog, cfg, core.ExecOptions{
			Cluster:          s.cluster(cmpType, cmpNodes, cmpSlots),
			Seed:             s.Seed,
			Replication:      v.repl,
			RackSize:         v.rackSize,
			CrossRackPenalty: v.penalty,
		})
		if err != nil {
			return nil, err
		}
		m := res.Metrics
		var local, rack, remote int64
		for _, tr := range m.Tasks {
			local += tr.LocalReadBytes
			rack += tr.RackReadBytes
			remote += tr.RemoteReadBytes
		}
		total := float64(local + rack + remote)
		lf := float64(local) / total
		r.Table.AddRow(v.label,
			f1(100*lf), f1(100*float64(rack)/total), f1(100*float64(remote)/total),
			f1(m.TotalSeconds))
		if v.label == "replication 3" {
			flat3 = m.TotalSeconds
		}
		if v.rackSize > 0 {
			racked = m.TotalSeconds
		}
		if v.rackSize == 0 {
			localFracs = append(localFracs, lf)
		}
	}
	for i := 1; i < len(localFracs); i++ {
		if localFracs[i] < localFracs[i-1] {
			r.Checks["localityNonMonotone"] = 1
		}
	}
	r.Checks["local:r1"] = localFracs[0]
	r.Checks["local:r6"] = localFracs[len(localFracs)-1]
	r.Checks["flat3"] = flat3
	r.Checks["racked"] = racked
	r.Table.Notes = "more replicas mean more node-local reads; oversubscribed racks tax the remainder"
	return r, nil
}

// E19Speculation measures speculative execution: makespan with and
// without straggler backups as the noise level grows.
func (s *Suite) E19Speculation() (*Result, error) {
	r := newResult("E19", "Speculative execution vs straggler noise (8 x m1.large, matmul 32768^2)",
		"noise", "plain s", "speculative s", "improvement", "backups won")
	w := workloads.MatMul(32768, 32768, 32768)
	for _, noise := range []float64{0.05, 0.2, 0.6} {
		var times [2]float64
		var wins int
		for i, speculate := range []bool{false, true} {
			res, err := s.Sess.Run(w.Prog, plan.Config{TileSize: tileSize}, core.ExecOptions{
				Cluster: s.cluster(cmpType, 8, cmpSlots),
				Seed:    s.Seed, NoiseFactor: noise, Speculation: speculate,
			})
			if err != nil {
				return nil, err
			}
			times[i] = res.Metrics.TotalSeconds
			if speculate {
				wins = res.Metrics.SpeculativeTasks
			}
		}
		imp := times[0] / times[1]
		r.Table.AddRow(fmt.Sprintf("%.2f", noise), f1(times[0]), f1(times[1]), f2(imp), d0(wins))
		r.Checks[fmt.Sprintf("improvement:%g", noise)] = imp
		r.Checks[fmt.Sprintf("wins:%g", noise)] = float64(wins)
	}
	r.Table.Notes = "heavier tails leave more for backups to win"
	return r, nil
}

// E20FaultRecovery exercises the fault-tolerance path: datanodes die
// after data ingest, the DFS re-replicates from surviving copies, and the
// scheduler completes the program on the remaining nodes.
func (s *Suite) E20FaultRecovery() (*Result, error) {
	r := newResult("E20", "Node failures: GNMF on 16 nodes with k dead (replication 3)",
		"dead nodes", "completed", "seconds", "re-replicated GB", "slowdown")
	w := workloads.GNMF(80000, 40000, 10, 1, 0.05)
	cfg := plan.Config{TileSize: tileSize, Densities: w.Densities}
	var base float64
	for _, dead := range []int{0, 1, 2, 4} {
		pl, err := plan.Compile(w.Prog, cfg)
		if err != nil {
			return nil, err
		}
		cl := s.cluster(cmpType, cmpNodes, cmpSlots)
		pl.AutoSplit(cl.TotalSlots())
		eng, err := exec.New(exec.Config{Cluster: cl, Seed: s.Seed, NoiseFactor: 0.08})
		if err != nil {
			return nil, err
		}
		for _, in := range pl.Inputs {
			if err := eng.LoadVirtual(in); err != nil {
				return nil, err
			}
		}
		var rerepl int64
		for n := 0; n < dead; n++ {
			rerepl += eng.FS().KillNode(n).BytesMoved
		}
		m, err := eng.Run(pl)
		completed := err == nil
		secs := 0.0
		if completed {
			secs = m.TotalSeconds
		}
		if dead == 0 {
			base = secs
		}
		slowdown := 0.0
		if base > 0 && completed {
			slowdown = secs / base
		}
		r.Table.AddRow(d0(dead), fmt.Sprintf("%v", completed), f1(secs),
			gb(rerepl), f2(slowdown))
		r.Checks[fmt.Sprintf("completed:%d", dead)] = boolTo01(completed)
		r.Checks[fmt.Sprintf("slowdown:%d", dead)] = slowdown
		r.Checks[fmt.Sprintf("rerepl:%d", dead)] = float64(rerepl)
	}
	// Mid-run chaos: the same workload with a node crash delivered while
	// the program is executing (at 40% of the fault-free makespan) plus
	// transient task and read faults. The scheduler retries onto the
	// survivors and the DFS re-replicates from the remaining copies, so
	// the run completes — slower, never wrong.
	if base > 0 {
		sched := &chaos.Schedule{
			Seed:          s.Seed,
			Crashes:       []chaos.NodeCrash{{Node: 0, At: 0.4 * base}},
			TaskFaultProb: 0.02,
			ReadFaultProb: 0.01,
		}
		res, err := s.Sess.Run(w.Prog, cfg, core.ExecOptions{
			Cluster: s.cluster(cmpType, cmpNodes, cmpSlots), Seed: s.Seed, Chaos: sched,
		})
		if err != nil {
			return nil, err
		}
		m := res.Metrics
		r.Table.AddRow("1 mid-run", "true", f1(m.TotalSeconds),
			gb(m.RereplicatedBytes), f2(m.TotalSeconds/base))
		r.Checks["midrun:crashes"] = float64(m.NodeCrashes)
		r.Checks["midrun:retries"] = float64(m.TotalRetries)
		r.Checks["midrun:rerepl"] = float64(m.RereplicatedBytes)
		r.Checks["midrun:slowdown"] = m.TotalSeconds / base
	}

	// Materialized bit-identity spot check at small scale: recovery must
	// change the timeline, never the data.
	bitident, err := s.chaosBitIdentity()
	if err != nil {
		return nil, err
	}
	r.Checks["bitident"] = boolTo01(bitident)

	r.Table.Notes = "losing nodes costs capacity (~n/(n-k) slowdown) plus re-replication traffic; no data loss at k < replication"
	return r, nil
}

// chaosBitIdentity runs a small materialized GNMF iteration on a racked
// cluster twice — fault-free, then under a chaos schedule that kills a
// node mid-program and injects transient faults — and reports whether the
// outputs match bit for bit.
func (s *Suite) chaosBitIdentity() (bool, error) {
	prog, err := lang.Parse(`
input V 26 22 sparse
input W 26 4
input H 4 22
H = H .* (W' * V) ./ ((W' * W) * H)
W = W .* (V * H') ./ (W * (H * H'))
output W
output H
`)
	if err != nil {
		return false, err
	}
	inputs := map[string]*linalg.Dense{
		"V": linalg.RandomSparseDense(26, 22, 0.25, 31),
		"W": linalg.RandomDense(26, 4, 32).Map(func(x float64) float64 { return x + 0.5 }),
		"H": linalg.RandomDense(4, 22, 33).Map(func(x float64) float64 { return x + 0.5 }),
	}
	run := func(sched *chaos.Schedule) (map[string]*linalg.Dense, *exec.RunMetrics, error) {
		res, err := s.Sess.Run(prog, plan.Config{TileSize: 8, Densities: map[string]float64{"V": 0.25}}, core.ExecOptions{
			Cluster: s.cluster(cmpType, 4, 2), Inputs: inputs,
			Seed: s.Seed, RackSize: 2, Workers: s.Workers, Chaos: sched,
		})
		if err != nil {
			return nil, nil, err
		}
		return res.Outputs, res.Metrics, nil
	}
	clean, cleanM, err := run(nil)
	if err != nil {
		return false, err
	}
	faulty, faultyM, err := run(&chaos.Schedule{
		Seed:          s.Seed + 1,
		Crashes:       []chaos.NodeCrash{{Node: 3, At: 0.4 * cleanM.TotalSeconds}},
		TaskFaultProb: 0.05,
		ReadFaultProb: 0.02,
	})
	if err != nil {
		return false, err
	}
	if faultyM.NodeCrashes != 1 {
		return false, fmt.Errorf("E20: chaos crash not delivered (crashes=%d)", faultyM.NodeCrashes)
	}
	for name, want := range clean {
		got := faulty[name]
		if got == nil || !reflect.DeepEqual(want.Data, got.Data) {
			return false, nil
		}
	}
	return true, nil
}

// E22TileCache measures the memory-caching configuration setting: GNMF
// iterations re-read the ratings matrix V, so per-node tile caches turn
// most of that traffic into memory hits once V fits.
func (s *Suite) E22TileCache() (*Result, error) {
	r := newResult("E22", "Node tile cache on iterative GNMF (8 x m1.large, 3 iterations)",
		"cache fraction", "seconds", "DFS read GB", "cache GB", "speedup")
	w := workloads.GNMF(80000, 40000, 10, 3, 0.05)
	cfg := plan.Config{TileSize: tileSize, Densities: w.Densities}
	var base float64
	for _, frac := range []float64{0, 0.25, 0.6} {
		res, err := s.Sess.Run(w.Prog, cfg, core.ExecOptions{
			Cluster: s.cluster(cmpType, 8, cmpSlots), Seed: s.Seed, CacheFraction: frac,
		})
		if err != nil {
			return nil, err
		}
		m := res.Metrics
		if frac == 0 {
			base = m.TotalSeconds
		}
		speedup := base / m.TotalSeconds
		r.Table.AddRow(fmt.Sprintf("%.2f", frac), f1(m.TotalSeconds),
			gb(m.TotalReadBytes), gb(m.TotalCacheBytes), f2(speedup))
		r.Checks[fmt.Sprintf("speedup:%g", frac)] = speedup
		r.Checks[fmt.Sprintf("cacheGB:%g", frac)] = float64(m.TotalCacheBytes) / 1e9
	}
	r.Table.Notes = "m1.large has 7.5 GB; a 0.6 fraction caches most of the working set"
	return r, nil
}
