package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cumulon/internal/ckpt"
	"cumulon/internal/compute"
	"cumulon/internal/core"
	"cumulon/internal/dfs"
	"cumulon/internal/exec"
	"cumulon/internal/lang"
	"cumulon/internal/linalg"
	"cumulon/internal/model"
	"cumulon/internal/obs"
	"cumulon/internal/opt"
	"cumulon/internal/plan"
	"cumulon/internal/sim"
	"cumulon/internal/store"
)

// tracedRun is -trace for one workload: it alternates untraced and traced
// windows of the workload (their ratio is the tracing overhead), writes the
// span file, and then times every layer from outside through its exported
// functions, on inputs taken from the workloads. End-to-end numbers are never
// taken from here.
func tracedRun(name string, o options, d time.Duration) (*result, error) {
	w, err := newWorkload(name, o.sc, o.seed)
	if err != nil {
		return nil, err
	}
	defer w.teardown()
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	tr := newTracer()
	plain, traced := &samples{}, &samples{}
	for k := 0; k < 3; k++ { // six windows, 0.6 d in all: the probes below need the rest
		w.measure(d/10, nil, plain)
		w.measure(d/10, tr, traced)
	}
	if plain.ok() == 0 || traced.ok() == 0 {
		return nil, fmt.Errorf("no op succeeded: %v %v", plain.failures, traced.failures)
	}
	spans := tr.snapshot()
	if _, err := writeTraceFile(o.traceDir, name, o.seed, spans); err != nil {
		return nil, err
	}
	sum := summarizeSpans(spans)

	p := &prober{name: name, sc: o.sc, seed: o.seed, m: map[string]metric{}}
	p.m["trace.overhead_ratio"] = single(sum.RootP50Ms/median(plain.latMs(false)), "ratio")
	p.m["host.slowdown"] = medianOf(append(plain.slowdown, traced.slowdown...), "ratio")
	if err := p.all(w, sum); err != nil {
		return nil, err
	}
	return &result{
		Attempted: plain.attempted + traced.attempted, Failed: plain.failed + traced.failed,
		Failures: append(plain.failures, traced.failures...), Metrics: p.m, Layers: &sum,
	}, nil
}

// prober times the layers one by one. Each probe is a counted loop; times
// and rates are medians over the loop, counts are exact. Nothing here is
// corrected for host speed: host.slowdown says how slow the host was.
type prober struct {
	name string // the traced workload
	sc   scale
	seed int64
	m    map[string]metric
}

// reps scales a loop count down for the smoke scale.
func (p *prober) reps(n int) int {
	if p.sc.name == "smoke" {
		return 2
	}
	return n
}

// timeEach calls f n times and returns each call's duration in seconds.
func timeEach(n int, f func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		f()
		out[i] = time.Since(t0).Seconds()
	}
	return out
}

// perCall times n batches of inner calls each and returns the seconds per
// call of each batch: for calls too short to time one at a time.
func perCall(n, inner int, f func()) []float64 {
	out := timeEach(n, func() {
		for i := 0; i < inner; i++ {
			f()
		}
	})
	for i := range out {
		out[i] /= float64(inner)
	}
	return out
}

// scaled is the median of xs times k, with quartiles, in the given unit.
func scaled(xs []float64, k float64, unit string) metric {
	m := medianOf(xs, unit)
	m.Value, m.Q1, m.Q3 = m.Value*k, m.Q1*k, m.Q3*k
	return m
}

// rate is work per second at the median time, with the quartiles swapped to
// stay ordered.
func rate(work float64, xs []float64, unit string) metric {
	m := medianOf(xs, unit)
	return metric{Value: work / m.Value, Unit: unit, Q1: work / m.Q3, Q3: work / m.Q1, N: m.N}
}

func (p *prober) all(w workload, sum layerSummary) error {
	steps := []func() error{p.langPlanSimOpt, p.storeDFS, p.linalgCompute}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	if err := p.execLayers(w, sum); err != nil {
		return fmt.Errorf("exec probes: %w", err)
	}
	if err := p.ckptCoreObs(); err != nil {
		return fmt.Errorf("ckpt/core/obs probes: %w", err)
	}
	if err := p.serverLayers(w, sum); err != nil {
		return fmt.Errorf("server probes: %w", err)
	}
	return nil
}

// langPlanSimOpt covers the layers a search crosses. lang is timed on the
// text serve_mixed submits most bytes of (the big GNMF); plan, sim and opt on
// search_gnmf's program.
func (p *prober) langPlanSimOpt() error {
	sc := p.sc
	text := gnmfSource(sc.bigM, sc.bigN, sc.bigR, sc.bigIters)
	var prog *lang.Program
	var err error
	p.m["lang.parse_us"] = scaled(perCall(p.reps(20), 20, func() { prog, err = lang.Parse(text) }), 1e6, "us")
	if err != nil {
		return err
	}
	p.m["lang.validate_us"] = scaled(perCall(p.reps(20), 20, func() { _, err = prog.Validate() }), 1e6, "us")
	if err != nil {
		return err
	}

	search := newSearchWorkload(sc, p.seed)
	if prog, err = lang.Parse(search.source(-1)); err != nil {
		return err
	}
	var pl *plan.Plan
	p.m["plan.compile_ms"] = scaled(timeEach(p.reps(20), func() { pl, err = plan.Compile(prog, search.cfg) }), 1e3, "ms")
	if err != nil {
		return err
	}
	cluster, err := m1Large(16, 2)
	if err != nil {
		return err
	}
	mt := cluster.Type
	p.m["plan.autosplit_us"] = scaled(perCall(p.reps(20), 10, func() { pl.AutoSplit(cluster.TotalSlots()) }), 1e6, "us")
	p.m["plan.clone_us"] = scaled(perCall(p.reps(20), 10, func() { _ = pl.Clone() }), 1e6, "us")
	tasks := 0
	p.m["plan.task_profiles_ms"] = scaled(timeEach(p.reps(10), func() {
		tasks = 0
		for _, j := range pl.Jobs {
			for _, phase := range plan.TaskProfiles(j) {
				tasks += len(phase)
			}
		}
	}), 1e3, "ms")
	p.m["plan.jobs"] = single(float64(len(pl.Jobs)), "count")
	p.m["plan.tasks"] = single(float64(tasks), "count")

	var cal *model.CalibrationResult
	p.m["model.calibrate_ms"] = scaled(timeEach(p.reps(5), func() { cal, err = model.Calibrate(mt, 2, p.seed) }), 1e3, "ms")
	if err != nil {
		return err
	}
	pred := sim.New(cal.Model, cluster)
	p.m["sim.predict_plan_ms"] = scaled(timeEach(p.reps(10), func() { _ = pred.PredictPlan(pl) }), 1e3, "ms")
	memPerSlot := int64(mt.MemoryGB * 1e9 * 0.7 / 2) // the share the optimizer grants a slot
	p.m["sim.optimize_splits_ms"] = scaled(timeEach(p.reps(5), func() { _ = pred.OptimizeSplits(pl.Clone(), memPerSlot) }), 1e3, "ms")

	req := opt.Request{Program: prog, PlanCfg: search.cfg, DeadlineSec: sc.searchDeadline}
	var cold, warm []float64
	var res *opt.Result
	for i := 0; i < p.reps(3); i++ {
		o := opt.New(p.seed)
		cold = append(cold, timeEach(1, func() { res, err = o.MinCostForDeadline(req) })...)
		if err != nil {
			return err
		}
		warm = append(warm, timeEach(1, func() { _, err = o.MinCostForDeadline(req) })...)
		if err != nil {
			return err
		}
	}
	p.m["opt.search_cold_ms"] = scaled(cold, 1e3, "ms")
	p.m["opt.search_warm_ms"] = scaled(warm, 1e3, "ms")
	p.m["opt.candidates"] = single(float64(len(res.Candidates)), "count")
	p.m["opt.candidates_per_s"] = rate(float64(len(res.Candidates)), cold, "1/s")
	st := opt.NewSearchTrace()
	req.Search = st
	if _, err := opt.New(p.seed).MinCostForDeadline(req); err != nil {
		return err
	}
	p.m["opt.model_cache_misses"] = single(float64(st.CounterValue(opt.CounterModelCacheMisses)), "count")
	return nil
}

// storeDFS times the tile codec and the file system's two faces: real
// payloads (materialized runs) and size-only bookkeeping (virtual runs).
func (p *prober) storeDFS() error {
	sc := p.sc
	dense := linalg.RandomDense(sc.denseTile, sc.denseTile, p.seed).TileAt(0, 0, sc.denseTile)
	sparse := linalg.DenseToCSR(linalg.RandomSparseDense(sc.gnmfTile, sc.gnmfTile, sc.gnmfDensity, p.seed).TileAt(0, 0, sc.gnmfTile))
	var raw, rawSparse []byte
	var err error
	encDense := timeEach(p.reps(30), func() { raw = store.EncodeTile(dense) })
	mb := float64(len(raw)) / 1e6
	p.m["store.encode_dense_mb_s"] = rate(mb, encDense, "MB/s")
	runtime.GC()
	before := readUsage()
	n := p.reps(30)
	decDense := timeEach(n, func() { _, err = store.DecodeTile(raw) })
	if err != nil {
		return err
	}
	after := readUsage()
	p.m["store.decode_dense_mb_s"] = rate(mb, decDense, "MB/s")
	p.m["store.decode_alloc_ratio"] = single(float64(after.alloc-before.alloc)/float64(n*len(raw)), "ratio")
	encSparse := perCall(p.reps(30), 10, func() { rawSparse = store.EncodeSparseTile(sparse) })
	mbSparse := float64(len(rawSparse)) / 1e6
	p.m["store.encode_sparse_mb_s"] = rate(mbSparse, encSparse, "MB/s")
	p.m["store.decode_sparse_mb_s"] = rate(mbSparse, perCall(p.reps(30), 10, func() { _, err = store.DecodeSparseTile(rawSparse) }), "MB/s")
	if err != nil {
		return err
	}

	fsys := dfs.New(dfs.DefaultConfig(4))
	i := 0
	p.m["dfs.write_mb_s"] = rate(mb, timeEach(p.reps(30), func() {
		err = fsys.Write(fmt.Sprintf("/probe/real/%d", i), raw, i%4)
		i++
	}), "MB/s")
	if err != nil {
		return err
	}
	p.m["dfs.peek_mb_s"] = rate(mb, perCall(p.reps(30), 10, func() { _, err = fsys.Peek("/probe/real/0") }), "MB/s")
	if err != nil {
		return err
	}
	i = 0
	p.m["dfs.write_virtual_us"] = scaled(perCall(p.reps(30), 50, func() {
		err = fsys.WriteVirtual(fmt.Sprintf("/probe/virtual/%d", i), int64(len(raw)), i%4)
		i++
	}), 1e6, "us")
	if err != nil {
		return err
	}
	i = 0
	p.m["dfs.read_account_us"] = scaled(perCall(p.reps(30), 50, func() {
		_, err = fsys.ReadAccount("/probe/virtual/0", i%4)
		i++
	}), 1e6, "us")
	return err
}

// linalgCompute times the kernels on the tile shapes the two materialized
// workloads hand them, and the element-wise tape on GNMF's update expression.
func (p *prober) linalgCompute() error {
	sc := p.sc
	tile := func(rows, cols int, seed int64) *linalg.Tile {
		return linalg.RandomDense(rows, cols, seed).TileAt(0, 0, max(rows, cols))
	}
	n := sc.denseTile
	a, b, c := tile(n, n, p.seed), tile(n, n, p.seed+1), linalg.NewTile(n, n)
	linalg.Gemm(c, a, b) // fills the scratch pools
	p.m["linalg.gemm_mflops"] = rate(2*float64(n)*float64(n)*float64(n)/1e6, timeEach(p.reps(10), func() { linalg.Gemm(c, a, b) }), "MFLOP/s")
	runtime.GC()
	before := readUsage()
	k := p.reps(5)
	for i := 0; i < k; i++ {
		linalg.Gemm(c, a, b)
	}
	p.m["linalg.gemm_alloc_bytes"] = single(float64(readUsage().alloc-before.alloc)/float64(k), "B")

	t, r := sc.gnmfTile, sc.gnmfR
	sq, skinny, out := tile(t, t, p.seed+2), tile(t, r, p.seed+3), linalg.NewTile(t, r)
	skinnyFlops := 2 * 2 * float64(t) * float64(t) * float64(r) / 1e6
	p.m["linalg.gemm_skinny_mflops"] = rate(skinnyFlops, perCall(p.reps(20), 10, func() {
		linalg.Gemm(out, sq, skinny)
		linalg.GemmTA(out, sq, skinny)
	}), "MFLOP/s")
	csr := linalg.DenseToCSR(linalg.RandomSparseDense(t, t, sc.gnmfDensity, p.seed+4).TileAt(0, 0, t))
	p.m["linalg.spgemm_mflops"] = rate(2*float64(csr.NNZ())*float64(r)/1e6, perCall(p.reps(20), 20, func() {
		linalg.SpGemmDense(out, csr, skinny)
	}), "MFLOP/s")
	p.m["linalg.csr_to_dense_mb_s"] = rate(8*float64(t)*float64(t)/1e6, perCall(p.reps(20), 20, func() { _ = csr.ToDense() }), "MB/s")

	gnmf := newGNMFWorkload(sc, p.seed)
	prog, err := lang.Parse(gnmf.src)
	if err != nil {
		return err
	}
	pl, err := plan.Compile(prog, gnmf.cfg)
	if err != nil {
		return err
	}
	for _, j := range pl.Jobs {
		if j.Expr == nil { // the update H .* (..) ./ (..) is the plan's first Map job
			continue
		}
		elems := t * r
		var tape *plan.TileProgram
		var leaves [][]float64
		p.m["compute.tape_ns_per_elem"] = scaled(perCall(p.reps(20), 20, func() {
			if tape, err = plan.CompileTileProgram(j.Expr, j.Leaves); err != nil {
				return
			}
			if leaves == nil {
				for s := range tape.Leaves {
					leaves = append(leaves, tile(t, r, p.seed+10+int64(s)).Data)
				}
			}
			compute.RunTileProgram(tape, out.Data, leaves, nil)
		}), 1e9/float64(elems), "ns")
		return err
	}
	return fmt.Errorf("GNMF plan has no Map job")
}

// execLayers reports the engine's steps from the traced spans of a
// materialized workload — the traced one when it is dense_matmul or
// gnmf_sparse, a short dense_matmul run otherwise — plus the kernel share of
// dense_matmul's engine time and the virtual engine on serve_mixed's big GNMF.
func (p *prober) execLayers(w workload, sum layerSummary) error {
	rw, isRun := w.(*runWorkload)
	dense := rw
	denseSum := sum
	if p.name != "dense_matmul" {
		dense = newDenseWorkload(p.sc, p.seed)
		if err := dense.setup(); err != nil {
			return err
		}
		defer dense.teardown()
		tr := newTracer()
		acc := &samples{}
		for acc.ok() < p.reps(3) && acc.failed == 0 {
			dense.measure(0, tr, acc)
		}
		if acc.failed > 0 {
			return fmt.Errorf("dense_matmul: %v", acc.failures)
		}
		denseSum = summarizeSpans(tr.snapshot())
	}
	from, tasks := denseSum, dense.tasks
	if isRun {
		from, tasks = sum, rw.tasks
	}
	p.m["exec.load_ms"] = single(from.SpanP50Ms["load"], "ms")
	p.m["exec.run_ms"] = single(from.SpanP50Ms["run"], "ms")
	p.m["exec.fetch_ms"] = single(from.SpanP50Ms["fetch"], "ms")
	p.m["exec.tasks"] = single(float64(tasks), "count")

	// The same tile products the engine ran, issued straight to the kernel.
	ts, nt := p.sc.denseTile, (p.sc.denseN+p.sc.denseTile-1)/p.sc.denseTile
	at, bt := make([][]*linalg.Tile, nt), make([][]*linalg.Tile, nt)
	for i := 0; i < nt; i++ {
		at[i], bt[i] = make([]*linalg.Tile, nt), make([]*linalg.Tile, nt)
		for j := 0; j < nt; j++ {
			at[i][j] = dense.inputs["A"].TileAt(i, j, ts)
			bt[i][j] = dense.inputs["B"].TileAt(i, j, ts)
		}
	}
	kernel := median(timeEach(p.reps(3), func() {
		for i := 0; i < nt; i++ {
			for j := 0; j < nt; j++ {
				c := linalg.NewTile(at[i][0].Rows, bt[0][j].Cols)
				for k := 0; k < nt; k++ {
					linalg.Gemm(c, at[i][k], bt[k][j])
				}
			}
		}
	}))
	p.m["exec.kernel_share"] = single(kernel*1e3/denseSum.SpanP50Ms["run"], "ratio")

	sc := p.sc
	prog, err := lang.Parse(gnmfSource(sc.bigM, sc.bigN, sc.bigR, sc.bigIters))
	if err != nil {
		return err
	}
	pl, err := plan.Compile(prog, plan.Config{TileSize: 2048, Densities: map[string]float64{"V": 0.01}})
	if err != nil {
		return err
	}
	cluster, err := m1Large(4, 2)
	if err != nil {
		return err
	}
	pl.AutoSplit(cluster.TotalSlots())
	vtasks := 0
	virt := timeEach(p.reps(10), func() {
		var eng *exec.Engine
		if eng, err = exec.New(exec.Config{Cluster: cluster, Seed: p.seed, NoiseFactor: 0.08}); err != nil {
			return
		}
		for _, in := range pl.Inputs {
			if err = eng.LoadVirtual(in); err != nil {
				return
			}
		}
		var m *exec.RunMetrics
		if m, err = eng.Run(pl.Clone()); err == nil {
			vtasks = len(m.Tasks)
		}
	})
	if err != nil {
		return err
	}
	p.m["exec.virtual_run_ms"] = scaled(virt, 1e3, "ms")
	p.m["exec.virtual_tasks_per_s"] = rate(float64(vtasks), virt, "1/s")
	return nil
}

// ckptCoreObs covers checkpointing (on serve_mixed's materialized GNMF),
// input generation and the span recorder (both on gnmf_sparse's program).
func (p *prober) ckptCoreObs() error {
	sc := p.sc
	cluster, err := m1Large(4, 2)
	if err != nil {
		return err
	}
	// ckpt
	cfg := plan.Config{TileSize: sc.matTile, Densities: map[string]float64{"V": 0.2}}
	prog, err := lang.Parse(gnmfSource(sc.matM, sc.matN, sc.matR, sc.matIters))
	if err != nil {
		return err
	}
	inputs := core.RandomInputs(prog, cfg, p.seed)
	sess := core.NewSession(p.seed)
	dir, err := os.MkdirTemp("", "perf-ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var plainS, ckptS, resumeS []float64
	var cs *ckpt.DirStore
	for i := 0; i < p.reps(10); i++ {
		plainS = append(plainS, timeEach(1, func() {
			_, err = sess.Run(prog, cfg, core.ExecOptions{Cluster: cluster, Inputs: inputs})
		})...)
		if err != nil {
			return err
		}
		if cs, err = ckpt.NewDirStore(filepath.Join(dir, fmt.Sprint(i))); err != nil {
			return err
		}
		opts := core.ExecOptions{Cluster: cluster, Inputs: inputs, CheckpointEvery: 1, CheckpointStore: cs}
		ckptS = append(ckptS, timeEach(1, func() { _, err = sess.Run(prog, cfg, opts) })...)
		if err != nil {
			return err
		}
		opts.Resume = true
		resumeS = append(resumeS, timeEach(1, func() { _, err = sess.Run(prog, cfg, opts) })...)
		if err != nil {
			return err
		}
	}
	p.m["ckpt.overhead_ratio"] = single(median(ckptS)/median(plainS), "ratio")
	p.m["ckpt.resume_ms"] = scaled(resumeS, 1e3, "ms")
	bytes, err := dirBytes(cs.Root())
	if err != nil {
		return err
	}
	p.m["ckpt.bytes_per_run"] = single(float64(bytes), "B")

	// core, obs
	gnmf := newGNMFWorkload(sc, p.seed)
	cfg = gnmf.cfg
	if prog, err = lang.Parse(gnmf.src); err != nil {
		return err
	}
	p.m["core.random_inputs_ms"] = scaled(timeEach(p.reps(5), func() { inputs = core.RandomInputs(prog, cfg, p.seed) }), 1e3, "ms")
	var off, on []float64
	for i := 0; i < p.reps(3); i++ {
		off = append(off, timeEach(1, func() {
			_, err = sess.Run(prog, cfg, core.ExecOptions{Cluster: cluster, Inputs: inputs})
		})...)
		if err != nil {
			return err
		}
		on = append(on, timeEach(1, func() {
			_, err = sess.Run(prog, cfg, core.ExecOptions{Cluster: cluster, Inputs: inputs, Recorder: obs.NewTrace()})
		})...)
		if err != nil {
			return err
		}
	}
	p.m["obs.recorder_overhead_ratio"] = single(median(on)/median(off), "ratio")
	return nil
}

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) (int64, error) {
	var total int64
	err := filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
