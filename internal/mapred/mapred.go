// Package mapred implements the comparison baseline: a Hadoop
// MapReduce-style execution engine for the same matrix programs, modeled
// after how pre-Cumulon systems (SystemML-on-Hadoop and kin) execute
// linear algebra:
//
//   - one MapReduce job per logical operator — no fusion of element-wise
//     operators into their producers, and an explicit job even for
//     transposes;
//   - every intermediate materialized to the DFS with full replication;
//   - matrix multiplication via RMM (replication-based, one job whose
//     shuffle replicates each input block across the output grid) or CPMM
//     (cross-product, two jobs: group blocks by the inner index, emit
//     partial products, aggregate), with an automatic choice of the
//     cheaper one;
//   - a shuffle between map and reduce: spill to map-side disk, transfer
//     over the network, merge at the reducers.
//
// The engine prices these costs with the same machine profiles
// (cloud.MachineType) and the same virtual-time approach as the Cumulon
// engine, so the comparison isolates the architectural differences the
// paper attributes its speedups to: fewer jobs, no shuffle/sort on the
// common path, and fused element-wise work. Values, when materialization
// is requested, are computed operator-at-a-time against the reference
// semantics, so result equivalence with Cumulon is testable.
package mapred

import (
	"fmt"
	"math"
	"math/rand"

	"cumulon/internal/chaos"
	"cumulon/internal/cloud"
	"cumulon/internal/lang"
	"cumulon/internal/linalg"
	"cumulon/internal/obs"
)

// Strategy selects the matrix-multiplication MapReduce algorithm.
type Strategy int

const (
	// Auto picks the cheaper of RMM and CPMM per product.
	Auto Strategy = iota
	// RMM forces replication-based matrix multiply (one job).
	RMM
	// CPMM forces cross-product matrix multiply (two jobs).
	CPMM
)

func (s Strategy) String() string {
	switch s {
	case RMM:
		return "RMM"
	case CPMM:
		return "CPMM"
	default:
		return "auto"
	}
}

// The Hadoop-era MapReduce execution style the baseline prices: properties
// of record-oriented processing, not of the hardware the engines share.
const (
	// jobStartupSec is the fixed overhead per MapReduce job: JVM launch,
	// job setup/teardown, scheduler round trips. Higher than Cumulon's
	// lean job launcher (cloud.JobStartupSec).
	jobStartupSec = 15.0
	// splitBytes is the input split size that determines map counts.
	splitBytes = 64 << 20
	// localityFraction is the fraction of map input read node-locally
	// (Hadoop with delay scheduling typically achieves 0.8-0.95).
	localityFraction = 0.85
	// mergeFactor models the extra disk passes of the shuffle sort/merge.
	mergeFactor = 1.5
	// serdeMBps is the per-slot throughput of record
	// serialization/deserialization. MapReduce moves matrix blocks as
	// key-value records through sort buffers; this CPU cost is a large
	// part of why array-native engines beat Hadoop-based ones.
	serdeMBps = 150.0
	// cpuEfficiency discounts the machine's flop rate for the arithmetic
	// done inside MR tasks (boxed records, per-block virtual dispatch, JVM
	// copies), relative to Cumulon's array-native kernels. Hadoop-era
	// linear-algebra systems typically realized about half the raw rate.
	cpuEfficiency = 0.5
)

// Config configures the baseline engine.
type Config struct {
	Cluster cloud.Cluster
	// BlockSize is the matrix block edge, SystemML-style (0 selects 1000).
	BlockSize int
	Strategy  Strategy
	// Materialize computes real values operator-at-a-time (for result
	// equivalence tests). Timing is unaffected.
	Materialize bool
	Seed        int64
	NoiseFactor float64
	// Chaos injects the same deterministic fault schedule the Cumulon
	// engine honors: node crashes shrink the live cluster for every job
	// priced after the crash time, and per-task fault decisions (hashed
	// from job/phase/task coordinates) cost extra retry waves. The
	// baseline has no data to lose — intermediates are fully replicated —
	// so faults only stretch the timeline.
	Chaos *chaos.Schedule
	// Recorder receives the run's observability spans. The baseline engine
	// records coarsely — one program span, one span per MR job with
	// map/shuffle/reduce phases — enough for the critical-path analyzer
	// and the predicted-vs-actual differ. nil disables recording.
	Recorder obs.Recorder
}

// JobRecord describes one executed MapReduce job.
type JobRecord struct {
	Name         string
	Op           string
	MapTasks     int
	ReduceTasks  int
	InputBytes   int64
	ShuffleBytes int64
	OutputBytes  int64
	Flops        int64
	Seconds      float64
	// Retries counts task attempts lost to injected faults and re-run in
	// extra waves at the end of the map/reduce phase.
	Retries int
}

// RunMetrics aggregates a baseline program execution.
type RunMetrics struct {
	TotalSeconds      float64
	Jobs              []JobRecord
	TotalShuffleBytes int64
	TotalReadBytes    int64
	TotalWriteBytes   int64
	TotalFlops        int64
	TotalRetries      int
}

// matInfo tracks a (virtual) materialized matrix.
type matInfo struct {
	rows, cols int
	sparse     bool
	density    float64
	value      *linalg.Dense // nil unless materializing
}

func (m matInfo) bytes() int64 {
	d := 1.0
	if m.sparse && m.density > 0 && m.density <= 1 {
		d = m.density
	}
	b := float64(m.rows) * float64(m.cols) * 8 * d
	if m.sparse {
		b *= 1.5 // CSR index overhead
	}
	return int64(b)
}

// Engine executes programs MapReduce-style.
type Engine struct {
	cfg Config
	rng *rand.Rand
	rec obs.Recorder
	inj *chaos.Injector
	// prog is the program span of the Run in progress (emitJob parents
	// its job spans under it).
	prog obs.SpanID
}

// New creates a baseline engine.
func New(cfg Config) (*Engine, error) {
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 1000
	}
	if cfg.Cluster.Nodes <= 0 || cfg.Cluster.Slots <= 0 {
		return nil, fmt.Errorf("mapred: invalid cluster %+v", cfg.Cluster)
	}
	if err := cfg.Chaos.Validate(); err != nil {
		return nil, fmt.Errorf("mapred: %w", err)
	}
	return &Engine{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)),
		rec: obs.OrNop(cfg.Recorder), inj: chaos.NewInjector(cfg.Chaos)}, nil
}

// Run executes the program. densities estimates sparse-input densities by
// name; inputs supplies real values when Materialize is on. It returns
// metrics and, when materializing, the output values.
func (e *Engine) Run(p *lang.Program, densities map[string]float64, inputs map[string]*linalg.Dense) (*RunMetrics, map[string]*linalg.Dense, error) {
	if _, err := p.Validate(); err != nil {
		return nil, nil, err
	}
	env := map[string]matInfo{}
	for _, in := range p.Inputs {
		mi := matInfo{rows: in.Rows, cols: in.Cols, sparse: in.Sparse, density: densities[in.Name]}
		if e.cfg.Materialize {
			d, ok := inputs[in.Name]
			if !ok {
				return nil, nil, fmt.Errorf("mapred: missing input %s", in.Name)
			}
			mi.value = d
		}
		env[in.Name] = mi
	}
	m := &RunMetrics{}
	e.prog = e.rec.Start(obs.KindProgram, "program", obs.NoSpan, 0)
	for si, st := range p.Stmts {
		mi, err := e.evalExpr(fmt.Sprintf("s%d", si), st.Expr, env, m)
		if err != nil {
			return nil, nil, err
		}
		env[st.Name] = mi
	}
	e.rec.End(e.prog, m.TotalSeconds)
	outs := map[string]*linalg.Dense{}
	if e.cfg.Materialize {
		for _, o := range p.Outputs {
			outs[o] = env[o].value
		}
	}
	return m, outs, nil
}

// evalExpr walks the expression post-order, emitting one (or two) MR jobs
// per operator node.
func (e *Engine) evalExpr(label string, expr lang.Expr, env map[string]matInfo, m *RunMetrics) (matInfo, error) {
	switch x := expr.(type) {
	case lang.Var:
		mi, ok := env[x.Name]
		if !ok {
			return matInfo{}, fmt.Errorf("mapred: undefined variable %s", x.Name)
		}
		return mi, nil
	case lang.Transpose:
		in, err := e.evalExpr(label, x.X, env, m)
		if err != nil {
			return matInfo{}, err
		}
		out := matInfo{rows: in.cols, cols: in.rows, sparse: in.sparse, density: in.density}
		if in.value != nil {
			out.value = in.value.T()
		}
		// Transpose is a full shuffle job: every block changes key.
		e.emitJob(m, label, "transpose", in.bytes(), in.bytes(), out.bytes(), 0, true)
		return out, nil
	case lang.Scale:
		in, err := e.evalExpr(label, x.X, env, m)
		if err != nil {
			return matInfo{}, err
		}
		out := matInfo{rows: in.rows, cols: in.cols}
		if in.value != nil {
			out.value = in.value.Scale(x.S)
		}
		elems := int64(in.rows) * int64(in.cols)
		e.emitJob(m, label, "scale", in.bytes(), 0, out.bytes(), elems, false)
		return out, nil
	case lang.Apply:
		in, err := e.evalExpr(label, x.X, env, m)
		if err != nil {
			return matInfo{}, err
		}
		out := matInfo{rows: in.rows, cols: in.cols}
		if in.value != nil {
			out.value = in.value.Map(lang.Funcs[x.Fn])
		}
		elems := int64(in.rows) * int64(in.cols)
		e.emitJob(m, label, x.Fn, in.bytes(), 0, out.bytes(), elems, false)
		return out, nil
	case lang.Elem:
		li, err := e.evalExpr(label, x.L, env, m)
		if err != nil {
			return matInfo{}, err
		}
		ri, err := e.evalExpr(label, x.R, env, m)
		if err != nil {
			return matInfo{}, err
		}
		out := matInfo{rows: li.rows, cols: li.cols}
		if li.value != nil && ri.value != nil {
			out.value = x.Op.Dense(li.value, ri.value)
		}
		elems := int64(li.rows) * int64(li.cols)
		// Aligning the two block streams requires shuffling both inputs.
		in := li.bytes() + ri.bytes()
		e.emitJob(m, label, elemJobNames[x.Op], in, in, out.bytes(), elems, true)
		return out, nil
	case lang.MatMul:
		li, err := e.evalExpr(label, x.L, env, m)
		if err != nil {
			return matInfo{}, err
		}
		ri, err := e.evalExpr(label, x.R, env, m)
		if err != nil {
			return matInfo{}, err
		}
		return e.emitMatMul(label, li, ri, m)
	default:
		return matInfo{}, fmt.Errorf("mapred: unsupported node %T", expr)
	}
}

// emitMatMul emits the RMM or CPMM job(s) for li x ri.
func (e *Engine) emitMatMul(label string, li, ri matInfo, m *RunMetrics) (matInfo, error) {
	if li.cols != ri.rows {
		return matInfo{}, fmt.Errorf("mapred: matmul shape mismatch %dx%d * %dx%d", li.rows, li.cols, ri.rows, ri.cols)
	}
	out := matInfo{rows: li.rows, cols: ri.cols}
	if li.value != nil && ri.value != nil {
		out.value = li.value.Mul(ri.value)
	}
	bs := e.cfg.BlockSize
	ib := ceilDiv(li.rows, bs)
	kb := ceilDiv(li.cols, bs)
	jb := ceilDiv(ri.cols, bs)
	dl := 1.0
	if li.sparse && li.density > 0 {
		dl = li.density
	}
	flops := int64(2 * dl * float64(li.rows) * float64(li.cols) * float64(ri.cols))

	// RMM: single job; shuffle replicates A jb times and B ib times.
	rmmShuffle := li.bytes()*int64(jb) + ri.bytes()*int64(ib)
	// CPMM: job 1 shuffles A and B once grouped by k, emits kb partial
	// C-sized outputs; job 2 shuffles partials and sums.
	partials := out.bytes() * int64(kb)
	cpmmShuffle1 := li.bytes() + ri.bytes()
	cpmmShuffle2 := partials

	strat := e.cfg.Strategy
	if strat == Auto {
		// Compare total shuffled bytes, the dominant cost driver; the
		// second job's fixed overhead breaks near-ties toward RMM.
		if rmmShuffle <= cpmmShuffle1+cpmmShuffle2+partials/4 {
			strat = RMM
		} else {
			strat = CPMM
		}
	}
	switch strat {
	case RMM:
		e.emitJob(m, label, "matmul-RMM", li.bytes()+ri.bytes(), rmmShuffle, out.bytes(), flops, true)
	case CPMM:
		e.emitJob(m, label, "matmul-CPMM-1", li.bytes()+ri.bytes(), cpmmShuffle1, partials, flops, true)
		addFlops := int64(float64(out.rows) * float64(out.cols) * float64(kb-1))
		e.emitJob(m, label, "matmul-CPMM-2", partials, cpmmShuffle2, out.bytes(), addFlops, true)
	}
	return out, nil
}

// emitJob prices one MapReduce job and appends its record. hasReduce
// distinguishes map-only jobs (unary transforms) from full shuffle jobs.
func (e *Engine) emitJob(m *RunMetrics, label, op string, inputBytes, shuffleBytes, outputBytes, flops int64, hasReduce bool) {
	c := e.cfg
	mt := c.Cluster.Type
	jobID := len(m.Jobs)
	// Node crashes before this job's launch shrink the live cluster: fewer
	// slots per wave and less aggregate network/disk behind the shuffle.
	liveNodes := c.Cluster.Nodes - e.inj.CrashedBefore(m.TotalSeconds)
	if liveNodes < 1 {
		liveNodes = 1
	}
	totalSlots := liveNodes * c.Cluster.Slots
	maps := int(ceilDiv64(inputBytes, splitBytes))
	if maps < 1 {
		maps = 1
	}
	reduces := 0
	if hasReduce {
		reduces = totalSlots
		if reduces < 1 {
			reduces = 1
		}
	}

	// Map phase: read input (mostly local), compute, spill shuffle output.
	mapWaves := math.Ceil(float64(maps) / float64(totalSlots))
	localIn := int64(float64(inputBytes) * localityFraction)
	remoteIn := inputBytes - localIn
	// Record-oriented processing discounts the flop rate and charges
	// serialization per byte that crosses a task boundary.
	effFlops := int64(float64(flops) / cpuEfficiency)
	serdeRate := serdeMBps * 1e6
	mapFlops, redFlops := effFlops, int64(0)
	if hasReduce {
		// The arithmetic happens at the reducers for shuffle jobs.
		mapFlops, redFlops = 0, effFlops
	}
	perMap := mt.TaskSeconds(c.Cluster.Slots,
		mapFlops/int64(maps),
		(localIn+shuffleBytes)/int64(maps), // read input + spill to local disk
		remoteIn/int64(maps)) +
		float64(inputBytes+shuffleBytes)/float64(maps)/serdeRate
	mapPhase := mapWaves * perMap

	// Injected task faults re-run in extra waves at the end of their phase,
	// Hadoop-style: the job tracker reschedules failed attempts after the
	// healthy waves drain. The decisions hash off the job/phase/task
	// coordinates, so reruns are deterministic for a given schedule.
	retries := 0
	for i := 0; i < maps; i++ {
		if e.inj.TaskFault(jobID, 0, i, 0) {
			retries++
		}
	}
	recSec := math.Ceil(float64(retries)/float64(totalSlots)) * perMap

	// Shuffle: transfer over the cluster network, then the sort/merge disk
	// passes at the reducers.
	var shufflePhase float64
	if shuffleBytes > 0 {
		netAgg := float64(liveNodes) * mt.NetMBps * 1e6
		diskAgg := float64(liveNodes) * mt.DiskMBps * 1e6
		shufflePhase = float64(shuffleBytes)/netAgg + mergeFactor*float64(shuffleBytes)/diskAgg
	}

	// Reduce phase: read merged runs, compute, write output with
	// replication (extra copies traverse the network).
	var reducePhase float64
	writer := maps
	if hasReduce {
		writer = reduces
	}
	repl := int64(min(cloud.DefaultReplication, liveNodes))
	if hasReduce {
		perReduce := mt.TaskSeconds(c.Cluster.Slots,
			redFlops/int64(reduces),
			(shuffleBytes+outputBytes)/int64(reduces),
			(outputBytes*(repl-1))/int64(reduces)) +
			float64(shuffleBytes+outputBytes)/float64(reduces)/serdeRate
		reduceWaves := math.Ceil(float64(reduces) / float64(totalSlots))
		reducePhase = reduceWaves * perReduce
		failedRed := 0
		for i := 0; i < reduces; i++ {
			if e.inj.TaskFault(jobID, 1, i, 0) {
				failedRed++
			}
		}
		retries += failedRed
		recSec += math.Ceil(float64(failedRed)/float64(totalSlots)) * perReduce
	} else {
		// Map-only job writes output from the mappers.
		perMapWrite := mt.TaskSeconds(c.Cluster.Slots, 0,
			outputBytes/int64(writer), (outputBytes*(repl-1))/int64(writer))
		reducePhase = (perMapWrite - mt.StartupSec) * mapWaves
		if reducePhase < 0 {
			reducePhase = 0
		}
	}

	secs := jobStartupSec + mapPhase + shufflePhase + reducePhase + recSec
	if c.NoiseFactor > 0 {
		secs *= 1 + c.NoiseFactor*e.rng.ExpFloat64()
	}
	if e.rec.Enabled() {
		e.recordJobSpans(jobID, label, op, m.TotalSeconds, secs,
			jobStartupSec, mapPhase, shufflePhase, reducePhase, recSec)
	}
	m.Jobs = append(m.Jobs, JobRecord{
		Name: label, Op: op,
		MapTasks: maps, ReduceTasks: reduces,
		InputBytes: inputBytes, ShuffleBytes: shuffleBytes, OutputBytes: outputBytes,
		Flops: flops, Seconds: secs, Retries: retries,
	})
	m.TotalRetries += retries
	m.TotalSeconds += secs
	m.TotalShuffleBytes += shuffleBytes
	m.TotalReadBytes += inputBytes
	m.TotalWriteBytes += outputBytes
	m.TotalFlops += flops
}

// recordJobSpans emits the span tree of one MR job: the job span under
// the program span, then one phase (with a single coarse task) per
// nonzero stage, each attributed to one time category — map time to
// compute, shuffle to remote reads, reduce to writes, fault reruns to
// recovery. The noise-free stage durations are scaled so the phases tile
// [start, start+secs] exactly, with the job-startup gap left before the
// first phase (the critical-path analyzer attributes it to startup).
func (e *Engine) recordJobSpans(jobID int, label, op string, start, secs, startup, mapSec, shufSec, redSec, recSec float64) {
	scale := 1.0
	if sum := startup + mapSec + shufSec + redSec + recSec; sum > 0 {
		scale = secs / sum
	}
	j := e.rec.Start(obs.KindJob, label+":"+op, e.prog, start)
	e.rec.SetAttrs(j, obs.Attrs{JobID: jobID})
	clock := start + startup*scale
	phase := 0
	emit := func(name string, sec float64, cat obs.Category) {
		if sec <= 0 {
			return
		}
		full := fmt.Sprintf("%s/%s", label, name)
		p := e.rec.Start(obs.KindPhase, full, j, clock)
		e.rec.SetAttrs(p, obs.Attrs{JobID: jobID, Phase: phase})
		t := e.rec.Start(obs.KindTask, full, p, clock)
		var b obs.Breakdown
		b[cat] = sec * scale
		e.rec.SetAttrs(t, obs.Attrs{JobID: jobID, Phase: phase, Breakdown: b})
		clock += sec * scale
		e.rec.End(t, clock)
		e.rec.End(p, clock)
		phase++
	}
	emit("map", mapSec, obs.CatCompute)
	emit("shuffle", shufSec, obs.CatRemoteRead)
	emit("reduce", redSec, obs.CatWrite)
	emit("retry", recSec, obs.CatRecovery)
	e.rec.End(j, start+secs)
}

// elemJobNames names the job of each element-wise operator.
var elemJobNames = [lang.NumElemOps]string{lang.OpAdd: "add", lang.OpSub: "sub", lang.OpMul: "elemmul", lang.OpDiv: "elemdiv"}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func ceilDiv64(a, b int64) int64 {
	if a <= 0 {
		return 1
	}
	return (a + b - 1) / b
}
