// Package exec is Cumulon's execution engine: it runs physical plans
// (package plan) on a provisioned cluster (package cloud) over the
// distributed file system (package dfs).
//
// Time is virtual. The engine is a deterministic discrete-event simulation
// of a slot-based cluster — the scheduling, data placement, locality, and
// per-task durations all follow the calibrated hardware profile of the
// chosen machine type — while the tile mathematics is (optionally)
// computed for real, in process, so results can be checked against the
// reference interpreter. With Materialize off, the same code paths run at
// paper scale: every read, write and task is still placed, accounted and
// timed, only the float arrays are elided.
package exec

import (
	"fmt"
	"math/rand"
	"slices"

	"cumulon/internal/chaos"
	"cumulon/internal/ckpt"
	"cumulon/internal/cloud"
	"cumulon/internal/compute"
	"cumulon/internal/dfs"
	"cumulon/internal/linalg"
	"cumulon/internal/obs"
	"cumulon/internal/plan"
	"cumulon/internal/store"
)

// Config configures an engine instance.
type Config struct {
	Cluster cloud.Cluster
	// Replication is the DFS replication factor (default
	// cloud.DefaultReplication), capped at the node count.
	Replication int
	// Materialize selects real tile computation. Off, tiles are virtual:
	// placement, accounting and timing are identical but no payloads move.
	Materialize bool
	// Inputs carries a session run's input matrices. Only core.Session
	// reads it (it loads them and sets Materialize); the engine itself
	// takes inputs through LoadDense and LoadVirtual.
	Inputs map[string]*linalg.Dense
	// Seed drives the deterministic noise and placement randomness.
	Seed int64
	// NoiseFactor scales multiplicative task-duration noise (stragglers,
	// JVM jitter). 0 disables. Typical: 0.08.
	NoiseFactor float64
	// Chaos injects a deterministic fault schedule into the run: node
	// crashes at virtual times, per-attempt task fault probabilities,
	// targeted faults and transient read errors (see package chaos). nil
	// runs fault-free. Fault decisions are hash-based, so the same
	// schedule produces the same failures on any compute backend.
	Chaos *chaos.Schedule
	// MaxTaskRetries bounds how many times a failed task is retried on
	// another node before the job fails terminally. 0 selects the Hadoop
	// default of 3; negative disables retries entirely.
	MaxTaskRetries int
	// RackSize groups datanodes into racks (see dfs.Config.RackSize);
	// zero means a single rack.
	RackSize int
	// CrossRackPenalty multiplies the network cost of cross-rack bytes,
	// modeling oversubscribed rack uplinks. 0 selects 2 when racks are
	// configured, 1 otherwise.
	CrossRackPenalty float64
	// CacheFraction, when positive, dedicates that fraction of each
	// node's memory to an LRU tile cache: tiles a node has already read
	// are served from memory (Cumulon's memory-caching setting). Off by
	// default.
	CacheFraction float64
	// Speculation enables straggler mitigation: when a task's projected
	// finish time exceeds 1.5x the phase median, a backup attempt is
	// launched on another free slot and the earlier finisher wins
	// (Hadoop's speculative execution). Only timing is affected — the
	// computation is deterministic either way.
	Speculation bool
	// OverlapJobs schedules a job as soon as its dependencies finish,
	// letting independent jobs share the cluster, instead of the
	// Hadoop-style global barrier between jobs. The optimizer's simulator
	// assumes barriers, so this is an engine extension (ablated in
	// experiment E15), off by default.
	OverlapJobs bool
	// Workers bounds how many tasks of a scheduling phase a materialized
	// run computes at once. 0, the default, means the host's compute
	// budget (linalg.Parallelism, GOMAXPROCS unless the process set it),
	// which also caps larger values; 1 computes sequentially on the
	// scheduling goroutine, the reference. Every goroutine doing tile math
	// holds a token of that one budget, so tasks and the parallel GEMM tier
	// together never exceed it. Virtual time, placement, byte accounting
	// and task durations are unaffected — the result is byte-for-byte
	// identical at every width. Virtual runs have no tile math and always
	// run sequentially. Negative values are rejected.
	Workers int
	// Backend overrides the compute backend entirely, and a caller may pin
	// a specific one. A compute.Memo here serves a virtual run the task
	// results earlier runs of the same compiled plan computed: cumulond's
	// plan-cache entries and model's calibration suite own one each. When
	// set, Workers is ignored.
	Backend compute.Backend
	// Recorder receives the run's observability spans (program → job →
	// phase → task, plus per-task kernel events). nil disables recording
	// at zero cost. Spans are recorded only from the scheduling
	// goroutine, so traces are deterministic regardless of Backend.
	Recorder obs.Recorder
	// CheckpointEvery, when positive, takes a program-level checkpoint at
	// every CheckpointEvery-th iteration boundary of the plan (package
	// lang's `checkpoint` markers): the matrices materialized so far are
	// persisted with their exact block placement, the write is charged to
	// the virtual clock as a checkpoint span, and the engine's random
	// streams reseed at the boundary so a resumed run replays the same
	// tail. 0 (the default) disables checkpointing entirely — no
	// barriers, no reseeds, byte-identical to pre-checkpoint engines.
	CheckpointEvery int
	// CheckpointStore persists checkpoints across runs. nil with
	// CheckpointEvery > 0 still performs the boundary barriers (so a run
	// can serve as the bit-identity oracle for a resumed one) but keeps
	// nothing.
	CheckpointStore ckpt.Store
	// Resume, before running any job, loads the newest valid checkpoint
	// matching this exact program and configuration from CheckpointStore
	// and fast-forwards past the jobs it covers. Requires
	// CheckpointEvery > 0 and a CheckpointStore. Without a matching
	// checkpoint the run silently starts from scratch.
	Resume bool
}

// retryBackoffSec is the base of the backoff charged before retry r:
// base * 2^(r-1) virtual seconds, on top of the failed attempt's startup.
const retryBackoffSec = 2.0

func (c Config) withDefaults() Config {
	if c.Replication == 0 {
		c.Replication = cloud.DefaultReplication
	}
	if c.MaxTaskRetries == 0 {
		c.MaxTaskRetries = 3
	}
	if c.MaxTaskRetries < 0 {
		c.MaxTaskRetries = 0
	}
	if c.CrossRackPenalty == 0 {
		c.CrossRackPenalty = 1
		if c.RackSize > 0 {
			c.CrossRackPenalty = 2
		}
	}
	return c
}

// Engine executes plans over its own DFS instance.
type Engine struct {
	cfg    Config
	fs     *dfs.FS
	st     *store.Store
	rng    *rand.Rand
	caches []*nodeCache // per-node tile caches (nil when disabled)
	// repl is the replicas each written block gets: the file system's
	// replication, which dfs caps at the node count.
	repl  int64
	chaos *chaos.Injector
	// backend computes the tile math; env is the environment its tasks
	// capture, with the decoded inputs a materialized run's tasks share. The
	// engine itself only replays traces.
	backend compute.Backend
	env     compute.Env
	// rec gets job, phase and checkpoint spans and retried and crash
	// events unless it is obs.Nop(); the rest only when it is Enabled.
	rec obs.Recorder
	// progHash and cfgHash identify the (program, configuration) pair a
	// checkpoint belongs to; set per Run when checkpointing is active.
	progHash, cfgHash string
}

// New creates an engine with a fresh DFS sized to the cluster.
func New(cfg Config) (*Engine, error) { return NewOn(cfg, nil, nil) }

// NewOn creates an engine over fs, whatever it already holds, drawing its
// straggler noise from rng. A nil fs is New's fresh DFS, seeded with
// cfg.Seed+1; a non-nil one must have the geometry New would give it (cfg's
// node count, replication and racks). A nil rng is a stream seeded with
// cfg.Seed. model's calibration suite starts engines on forks of a file
// system it loaded once.
func NewOn(cfg Config, fs *dfs.FS, rng *rand.Rand) (*Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.Cluster.Nodes <= 0 || cfg.Cluster.Slots <= 0 {
		return nil, fmt.Errorf("exec: invalid cluster %+v", cfg.Cluster)
	}
	if fs == nil {
		fs = dfs.New(dfs.Config{
			Nodes:       cfg.Cluster.Nodes,
			Replication: cfg.Replication,
			Seed:        cfg.Seed + 1,
			RackSize:    cfg.RackSize,
		})
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(cfg.Seed))
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("exec: Workers must be >= 0, got %d", cfg.Workers)
	}
	backend := cfg.Backend
	if backend == nil {
		if cfg.Materialize && cfg.Workers != 1 {
			backend = compute.NewPool(cfg.Workers)
		} else {
			backend = compute.NewSequential()
		}
	}
	if err := cfg.Chaos.Validate(); err != nil {
		return nil, err
	}
	rec := obs.OrNop(cfg.Recorder)
	env := compute.Env{Virtual: !cfg.Materialize, TileOps: rec.Enabled()}
	if cfg.Materialize {
		env.Src = compute.NewInputs(fs)
	}
	return &Engine{
		cfg:     cfg,
		fs:      fs,
		st:      store.New(fs),
		rng:     rng,
		repl:    int64(fs.Replication()),
		chaos:   chaos.NewInjector(cfg.Chaos),
		backend: backend,
		env:     env,
		rec:     rec,
	}, nil
}

// FS exposes the engine's file system (tests use it for failure injection
// and accounting assertions).
func (e *Engine) FS() *dfs.FS { return e.fs }

// LoadDense ingests a dense in-memory matrix as the given stored matrix
// (external ingest: replicas placed randomly). Use with Materialize on.
func (e *Engine) LoadDense(meta store.Meta, d *linalg.Dense) error {
	return e.st.SaveDense(meta, d, -1)
}

// FetchOutput downloads a stored matrix into memory (Materialize mode).
func (e *Engine) FetchOutput(meta store.Meta) (*linalg.Dense, error) {
	return e.st.LoadDense(meta, -1)
}

// LoadVirtual registers an input matrix as virtual tiles of estimated
// sizes (external ingest: replicas placed randomly).
func (e *Engine) LoadVirtual(meta store.Meta) error {
	b := e.fs.Batch()
	defer b.Done()
	meta.Declare(b)
	for ti := 0; ti < meta.TileRows(); ti++ {
		for tj := 0; tj < meta.TileCols(); tj++ {
			if err := b.WriteVirtual(meta.Tile(ti, tj), meta.EstTileBytes(ti, tj), -1); err != nil {
				return err
			}
		}
	}
	return nil
}

// Run executes the plan's jobs in dependency order on the virtual cluster
// and returns the complete run metrics. Matrices produced by a previous
// run of the same plan are overwritten; intermediates are garbage
// collected at the end.
func (e *Engine) Run(p *plan.Plan) (*RunMetrics, error) {
	m := new(RunMetrics)
	if err := e.RunInto(p, m); err != nil {
		return nil, err
	}
	return m, nil
}

// RunInto is Run into m, which it overwrites: the run's job and task records
// reuse m's arrays when they have room, so a caller that folds each run's
// records as it ends — model's calibration suite — keeps one pair of arrays
// across its runs. On an error m holds nothing meaningful.
func (e *Engine) RunInto(p *plan.Plan, m *RunMetrics) error {
	// However the run ends, no task runs once it returns: every decoded
	// input goes back to the pools, so the next run starts with none.
	defer e.env.Src.Drop(-1)
	*m = RunMetrics{Jobs: m.Jobs[:0], Tasks: m.Tasks[:0]}
	// A plan that cannot run — a bad split anywhere — fails here, before any
	// task runs or any file is written.
	jobs, err := p.TopoOrder()
	if err != nil {
		return err
	}
	points, err := e.checkpointSetup(p)
	if err != nil {
		return err
	}
	// Overwrite semantics for re-runs; caches cannot carry stale tiles
	// across runs. Each delete is one map delete of the matrix's directory,
	// whatever else the file system holds.
	for _, j := range jobs {
		e.fs.DeleteMatrix(j.Out.Name)
	}
	e.resetCaches()
	resumeJob := -1
	startClock := 0.0
	if e.cfg.Resume {
		rj, clock, ok, err := e.restoreCheckpoint(p, m)
		if err != nil {
			return err
		}
		if ok {
			resumeJob, startClock = rj, clock
		}
	}
	// Each job's phases are built once, here, and the task records sized
	// once, from the tasks of every job that runs, unless m has room.
	phases, nTasks := make([][]plan.Phase, len(jobs)), 0
	for i, j := range jobs {
		if j.ID > resumeJob {
			phases[i] = j.Phases()
			for p := range phases[i] {
				nTasks += phases[i][p].Tasks()
			}
		}
	}
	if m.Jobs = slices.Grow(m.Jobs, len(jobs)); cap(m.Tasks) < nTasks {
		m.Tasks = make([]TaskRecord, 0, nTasks)
	}
	e.bind(p)
	slots := e.allSlots()
	alive := 0
	for _, s := range slots {
		if !s.dead {
			alive++
		}
	}
	if alive == 0 {
		return fmt.Errorf("exec: no live nodes")
	}
	killAt := e.chaos.KillProgramAt()
	prog := e.rec.Start(obs.KindProgram, "program", obs.NoSpan, 0)
	jobEnds := map[int]float64{}
	globalEnd := startClock
	for i, j := range jobs {
		if j.ID <= resumeJob {
			jobEnds[j.ID] = startClock
			continue
		}
		// Barrier mode waits for every prior job; overlap mode only for
		// this job's dependencies.
		ready := globalEnd
		if e.cfg.OverlapJobs {
			ready = 0
			for _, d := range j.Deps {
				if jobEnds[d] > ready {
					ready = jobEnds[d]
				}
			}
		}
		if killAt > 0 && ready >= killAt {
			return &ProgramKilled{At: killAt}
		}
		end, err := e.runJob(j, phases[i], ready, slots, m, prog)
		if err != nil {
			return fmt.Errorf("exec: %s: %w", j, err)
		}
		if killAt > 0 && end > killAt {
			return &ProgramKilled{At: killAt}
		}
		jobEnds[j.ID] = end
		if end > globalEnd {
			globalEnd = end
		}
		if pt, ok := points[j.ID]; ok {
			globalEnd, err = e.writeCheckpoint(p, pt, globalEnd, m, prog)
			if err != nil {
				return err
			}
		}
	}
	m.TotalSeconds = globalEnd
	e.rec.End(prog, globalEnd)
	// One directory dropped per intermediate, as above.
	for _, im := range p.Intermediates() {
		e.fs.DeleteMatrix(im.Name)
	}
	return nil
}

// Reserve makes room for every matrix number a run of p binds, so that
// neither loading p's inputs nor running p, on this file system or a fork
// of it, grows its binding table: a caller reserves, then loads inputs.
func (e *Engine) Reserve(p *plan.Plan) {
	b := e.fs.Batch()
	b.Grow(p.Matrices())
	b.Done()
}

// bind binds the plan's matrix numbers to their names in the file system,
// one directory lookup each, with room for the numbers of the k-split
// partials the phases write: from here on the run finds every matrix by
// number.
func (e *Engine) bind(p *plan.Plan) {
	b := e.fs.Batch()
	b.Grow(p.Matrices())
	for num, name := range p.Names {
		b.Bind(int32(num), name)
	}
	b.Done()
}

// runJob executes one job under its phases, which may start at virtual time
// start, on the shared slot pool, and returns the job's end time.
func (e *Engine) runJob(j *plan.Job, phases []plan.Phase, start float64, slots []*slotState, m *RunMetrics, prog obs.SpanID) (float64, error) {
	jobStart := start + cloud.JobStartupSec
	hints := e.buildHints(j, phases)
	jspan := obs.NoSpan
	if e.rec != obs.Nop() {
		jspan = e.rec.Start(obs.KindJob, j.Name, prog, start)
		if e.rec.Enabled() {
			e.rec.SetAttrs(jspan, obs.Attrs{JobID: j.ID, Deps: j.Deps})
		}
	}
	clock := jobStart
	nTasks := 0
	for phase := range phases {
		nTasks += len(hints[phase])
		end, err := e.schedulePhase(j, phase, &phases[phase], hints[phase], clock, slots, m, jspan)
		if err != nil {
			return 0, err
		}
		clock = end
	}
	e.rec.End(jspan, clock)
	// The k-split partials go as soon as they are summed, decoded forms and
	// all (no task runs between jobs); dropping one is one map delete
	// whatever else the file system holds. Their numbers name the next
	// k-split job's partials, so no cache entry of theirs may serve a read
	// again.
	for _, c := range phases[0].Partials {
		e.fs.DeleteMatrix(c.Name)
		e.env.Src.Drop(c.Num)
	}
	if ps := phases[0].Partials; ps != nil {
		for _, c := range e.caches {
			c.forgetFrom(ps[0].Num)
		}
	}
	m.Jobs = append(m.Jobs, JobRecord{
		JobID:    j.ID,
		Name:     j.Name,
		Kind:     j.Kind.String(),
		Phases:   len(phases),
		Tasks:    nTasks,
		StartSec: start,
		EndSec:   clock,
	})
	return clock, nil
}

// slotState tracks one task slot of the virtual cluster.
type slotState struct {
	node   int
	freeAt float64
	dead   bool // node crashed mid-run; the slot accepts no further tasks
}

// schedulePhase runs one barrier-separated set of tasks with the greedy
// locality-aware list scheduler: whenever a slot frees, it takes a pending
// task that prefers its node if one exists, otherwise the oldest pending
// task. Tasks cannot start before notBefore (the phase's release time).
// Returns the phase end time.
func (e *Engine) schedulePhase(j *plan.Job, phase int, ph *plan.Phase, hints []int, notBefore float64, slots []*slotState, m *RunMetrics, jspan obs.SpanID) (float64, error) {
	jobID := j.ID
	pspan := obs.NoSpan
	if e.rec != obs.Nop() {
		pspan = e.rec.Start(obs.KindPhase, fmt.Sprintf("j%d/p%d", jobID, phase), jspan, notBefore)
		if e.rec.Enabled() {
			e.rec.SetAttrs(pspan, obs.Attrs{JobID: jobID, Phase: phase})
		}
	}
	// Hand the phase's compute work to the backend up front: a pool's
	// helpers start on the tile math now, while the scheduler below
	// consumes results in its own deterministic order (fetch computes the
	// task it is asked for, or waits for the helper that has it). The
	// sequential backend has no helpers, so with it compute interleaves
	// with accounting exactly as the pre-compute-layer engine did. However
	// the phase ends, the batch is released: an abandoned one must not keep
	// computing.
	fetch, release := e.backend.RunBatch(e.env, j, ph)
	defer release()
	// Only speculation and a recorder read where the phase's tasks ran.
	var placements []specPlacement
	placed := e.cfg.Speculation || e.rec != obs.Nop()
	if placed {
		placements = make([]specPlacement, 0, len(hints))
	}
	pending := make([]int, len(hints)) // task indices, oldest first
	for i := range pending {
		pending[i] = i
	}
	end := notBefore
	for len(pending) > 0 {
		// Earliest-available slot; ties broken by slice order for
		// determinism. Availability accounts for the release time.
		avail := func(s *slotState) float64 {
			if s.freeAt < notBefore {
				return notBefore
			}
			return s.freeAt
		}
		best := -1
		for i, s := range slots {
			if s.dead {
				continue
			}
			if best < 0 || avail(s) < avail(slots[best]) {
				best = i
			}
		}
		if best < 0 {
			return 0, fmt.Errorf("phase %d: every task slot lost to node failures", phase)
		}
		// Deliver any scheduled node crash due by the time this slot would
		// start, then re-pick: the crash may have taken the chosen slot.
		if c, ok := e.chaos.NextCrash(avail(slots[best])); ok {
			e.fireCrash(c, slots, m, pspan, notBefore)
			continue
		}
		slot := slots[best]
		if slot.freeAt < notBefore {
			slot.freeAt = notBefore
		}
		// Prefer a node-local task, then a rack-local one.
		pick := -1
		rackPick := -1
		slotRack := e.fs.RackOf(slot.node)
		for i, t := range pending {
			pref := hints[t]
			if pref == slot.node {
				pick = i
				break
			}
			if rackPick < 0 && pref >= 0 && e.fs.RackOf(pref) == slotRack {
				rackPick = i
			}
		}
		if pick < 0 {
			pick = rackPick
		}
		if pick < 0 {
			pick = 0
		}
		t := pending[pick]
		pending = append(pending[:pick], pending[pick+1:]...)

		rec, base, res, err := e.executeWithRetry(jobID, phase, t, slot, best, m, fetch)
		if err != nil {
			return 0, err
		}
		if placed {
			placements = append(placements, specPlacement{taskIdx: len(m.Tasks) - 1, base: base, slot: slot, res: res})
		}
		if rec.StartSec+rec.Seconds > end {
			end = rec.StartSec + rec.Seconds
		}
	}
	if e.cfg.Speculation && len(placements) > 1 {
		end = e.speculate(placements, slots, m, end)
	}
	// Task spans are recorded only now, after speculation has rewritten any
	// straggler's finish time and node, so the trace reflects the final
	// schedule. Placements are in scheduling order, keeping the export
	// deterministic. Without task spans, a retried task is an event of its
	// phase.
	if e.rec != obs.Nop() {
		for _, p := range placements {
			if r := m.Tasks[p.taskIdx]; e.rec.Enabled() {
				e.recordTaskSpan(pspan, r, p.res, notBefore)
			} else if r.Retries > 0 {
				e.rec.Event(pspan, r.retriedEvent(), r.StartSec-r.RecoverySec)
			}
		}
		e.rec.End(pspan, end)
	}
	return end, nil
}

// recordTaskSpan emits the span of one finished task: its placement and
// byte attributes, a per-category breakdown normalized to sum exactly to
// the span duration, and one event per kernel kind the compute layer
// aggregated. The span covers the whole attempt chain — it opens when the
// first (possibly failed) attempt started, and the time lost to failed
// attempts is attributed to the recovery category, so retries surface on
// the critical path as recovery rather than inflating compute.
func (e *Engine) recordTaskSpan(pspan obs.SpanID, rec TaskRecord, res *compute.Result, notBefore float64) {
	firstStart := rec.StartSec - rec.RecoverySec
	id := e.rec.Start(obs.KindTask, fmt.Sprintf("j%d/p%d/t%d", rec.JobID, rec.Phase, rec.Index), pspan, firstStart)
	b := e.taskBreakdown(&rec)
	if t := b.Total(); t > 0 {
		b = b.Scale(rec.Seconds / t)
	} else if rec.Seconds > 0 {
		b[obs.CatCompute] = rec.Seconds
	}
	b[obs.CatRecovery] = rec.RecoverySec
	queue := firstStart - notBefore
	if queue < 0 {
		queue = 0
	}
	e.rec.SetAttrs(id, obs.Attrs{
		JobID: rec.JobID, Phase: rec.Phase, Index: rec.Index,
		Node: rec.Node, Slot: rec.Slot,
		Flops:          rec.Flops,
		LocalReadBytes: rec.LocalReadBytes, RackReadBytes: rec.RackReadBytes,
		RemoteReadBytes: rec.RemoteReadBytes, CacheReadBytes: rec.CacheReadBytes,
		WriteBytes:  rec.WriteBytes,
		Retries:     rec.Retries,
		QueueSec:    queue,
		RecoverySec: rec.RecoverySec,
		Breakdown:   b,
	})
	if rec.Retries > 0 {
		e.rec.Event(id, rec.retriedEvent(), firstStart)
	}
	if res != nil {
		for _, k := range res.Kernels {
			e.rec.Event(id, fmt.Sprintf("%s x%d (%d flops)", k.Kind, k.Count, k.Flops), rec.StartSec)
		}
	}
	e.rec.End(id, rec.StartSec+rec.Seconds)
}

// retriedEvent names the event of a task that ran after failed attempts.
func (r TaskRecord) retriedEvent() string {
	return fmt.Sprintf("retried x%d (+%.2fs recovery)", r.Retries, r.RecoverySec)
}

// taskBreakdown attributes a task's noise-free duration to time
// categories, from the same fold as baseTaskSeconds: the disk component
// splits between local reads and writes by bytes, the network component
// between rack reads, penalty-weighted remote reads and replica write
// streams.
func (e *Engine) taskBreakdown(rec *TaskRecord) obs.Breakdown {
	disk, net := e.diskNet(rec)
	startup, cpu, diskSec, netSec := e.cfg.Cluster.Type.TaskBreakdown(e.cfg.Cluster.Slots, rec.Flops, disk, net)
	var b obs.Breakdown
	b[obs.CatStartup] = startup
	b[obs.CatCompute] = cpu
	if disk > 0 {
		b[obs.CatLocalRead] += diskSec * float64(rec.LocalReadBytes) / float64(disk)
		b[obs.CatWrite] += diskSec * float64(rec.WriteBytes) / float64(disk)
	}
	if net > 0 {
		rackW, writeW := rec.RackReadBytes, rec.WriteBytes*(e.repl-1)
		remoteW := net - rackW - writeW
		b[obs.CatRackRead] += netSec * float64(rackW) / float64(net)
		b[obs.CatRemoteRead] += netSec * float64(remoteW) / float64(net)
		b[obs.CatWrite] += netSec * float64(writeW) / float64(net)
	}
	return b
}

// specPlacement records where a task ran, its noise-free duration (for
// the speculation pass) and its compute result (for span recording).
type specPlacement struct {
	taskIdx int // index into m.Tasks
	base    float64
	slot    *slotState
	res     *compute.Result
}

// speculate applies Hadoop-style speculative execution to a finished
// phase schedule: tasks projected to finish later than 1.5x the median
// get a backup attempt on the earliest-free other slot, launched once the
// straggler is detectable (at the median finish time); the earlier
// finisher wins and the loser is killed. Returns the new phase end.
func (e *Engine) speculate(placements []specPlacement, slots []*slotState, m *RunMetrics, end float64) float64 {
	finishes := make([]float64, len(placements))
	for i, p := range placements {
		rec := &m.Tasks[p.taskIdx]
		finishes[i] = rec.StartSec + rec.Seconds
	}
	median := medianOf(finishes)
	threshold := 1.5 * median
	for i, p := range placements {
		rec := &m.Tasks[p.taskIdx]
		finish := finishes[i]
		if finish <= threshold {
			continue
		}
		// Earliest-free slot on a different live node.
		var backup *slotState
		for _, s := range slots {
			if s.dead || s == p.slot || s.node == rec.Node {
				continue
			}
			if backup == nil || s.freeAt < backup.freeAt {
				backup = s
			}
		}
		if backup == nil {
			continue
		}
		start := median
		if backup.freeAt > start {
			start = backup.freeAt
		}
		backupFinish := start + p.base*e.noiseFactor()
		if backupFinish >= finish {
			continue
		}
		// The backup wins: both slots free at the backup finish (the
		// original attempt is killed).
		rec.Seconds = backupFinish - rec.StartSec
		rec.Node = backup.node
		backup.freeAt = backupFinish
		if p.slot.freeAt > backupFinish {
			p.slot.freeAt = backupFinish
		}
		m.SpeculativeTasks++
		finishes[i] = backupFinish
	}
	newEnd := 0.0
	for _, f := range finishes {
		if f > newEnd {
			newEnd = f
		}
	}
	if newEnd > end {
		return end
	}
	return newEnd
}

func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	for i := 1; i < len(s); i++ {
		for k := i; k > 0 && s[k] < s[k-1]; k-- {
			s[k], s[k-1] = s[k-1], s[k]
		}
	}
	return s[len(s)/2]
}

// executeWithRetry runs a task on a slot, retrying a failed attempt on a
// different node (the Hadoop task-retry path) until the retry budget is
// exhausted, at which point the job fails terminally. Each failed attempt
// charges its startup cost plus an exponentially growing backoff on the
// original slot; the accumulated loss is reported as the record's
// RecoverySec. The compute result is node-independent, so a retry replays
// the same trace on the new node.
func (e *Engine) executeWithRetry(jobID, phase, index int, slot *slotState, slotIdx int, m *RunMetrics, fetch func(int) (*compute.Result, error)) (TaskRecord, float64, *compute.Result, error) {
	attempt := 0
	node := slot.node
	startAt := slot.freeAt
	retries := 0
	recovery := 0.0
	fail := func(err error) (TaskRecord, float64, *compute.Result, error) {
		return TaskRecord{}, 0, nil, fmt.Errorf("task %d/%d/%d failed after %d attempts: %w", jobID, phase, index, attempt+1, err)
	}
	for {
		rec := TaskRecord{JobID: jobID, Phase: phase, Index: index, Node: node, Slot: slotIdx}
		var res *compute.Result
		var err error
		if e.chaos.TaskFault(jobID, phase, index, attempt) {
			err = fmt.Errorf("chaos: injected task fault")
		} else {
			res, err = fetch(index)
			if err == nil {
				if p := e.firstReadPath(res); e.chaos.ReadFault(p, jobID, phase, index, attempt) {
					err = fmt.Errorf("chaos: transient read error on %s", p)
				} else {
					err = e.applyResult(res, &rec)
				}
			}
		}
		if err != nil {
			if retries >= e.cfg.MaxTaskRetries {
				return fail(err)
			}
			// Charge the failed attempt's startup plus backoff, then move
			// to another node.
			penalty := e.cfg.Cluster.Type.StartupSec + retryBackoffSec*float64(uint(1)<<uint(retries))
			startAt += penalty
			recovery += penalty
			retries++
			attempt++
			next, perr := e.pickOtherNode(node)
			if perr != nil {
				return fail(perr)
			}
			node = next
			continue
		}
		base := e.baseTaskSeconds(&rec)
		dur := base * e.noiseFactor()
		slot.freeAt = startAt + dur
		rec.StartSec, rec.Seconds, rec.Retries, rec.RecoverySec = startAt, dur, retries, recovery
		m.addTask(rec)
		return rec, base, res, nil
	}
}

// firstReadPath returns the path of the task's first traced read, the
// input a transient read fault is pinned to — rendered only for a schedule
// with read faults: for any other, "" faults nothing either.
func (e *Engine) firstReadPath(res *compute.Result) string {
	for i := 0; e.cfg.Chaos != nil && e.cfg.Chaos.ReadFaultProb > 0 && i < len(res.Ops); i++ {
		if !res.Ops[i].Write {
			return e.fs.Path(res.Ops[i].Tile)
		}
	}
	return ""
}

// pickOtherNode returns a live node other than not, scanning in rotation
// order from not so repeated failures walk the cluster instead of piling
// onto node 0. When no other live node exists it returns an error so the
// retry path terminates instead of re-running on the same possibly-dead
// node.
func (e *Engine) pickOtherNode(not int) (int, error) {
	n := e.cfg.Cluster.Nodes
	for i := 1; i <= n; i++ {
		c := (not + i) % n
		if c != not && e.fs.NodeAlive(c) {
			return c, nil
		}
	}
	return 0, fmt.Errorf("no other live node to retry on (cluster of %d)", n)
}

// fireCrash delivers one scheduled node crash: the DFS node dies and
// re-replicates, the node's slots are retired, and the recovery work is
// counted and recorded as a phase event.
func (e *Engine) fireCrash(c chaos.NodeCrash, slots []*slotState, m *RunMetrics, pspan obs.SpanID, notBefore float64) {
	rep := e.fs.KillNode(c.Node)
	for _, s := range slots {
		if s.node == c.Node {
			s.dead = true
		}
	}
	m.NodeCrashes++
	m.RereplicatedBytes += rep.BytesMoved
	m.BlocksLost += rep.BlocksLost
	if e.rec != obs.Nop() {
		at := c.At
		if at < notBefore {
			at = notBefore
		}
		e.rec.Event(pspan, fmt.Sprintf("crash node %d: recovered %d blocks (%d bytes moved, %d replicas added, %d blocks lost)",
			c.Node, rep.BlocksRecovered, rep.BytesMoved, rep.ReplicasAdded, rep.BlocksLost), at)
	}
}

// diskNet folds a task's bytes into the cost model's disk and network
// traffic on this engine's cluster.
func (e *Engine) diskNet(rec *TaskRecord) (disk, net int64) {
	return cloud.DiskNet(rec.LocalReadBytes, rec.RackReadBytes, rec.RemoteReadBytes, rec.WriteBytes,
		e.cfg.CrossRackPenalty, e.repl)
}

// baseTaskSeconds converts a task's flops and bytes into noise-free virtual
// seconds on the configured machine type.
func (e *Engine) baseTaskSeconds(rec *TaskRecord) float64 {
	disk, net := e.diskNet(rec)
	return e.cfg.Cluster.Type.TaskSeconds(e.cfg.Cluster.Slots, rec.Flops, disk, net)
}

// noiseFactor samples one multiplicative straggler factor (>= 1).
func (e *Engine) noiseFactor() float64 {
	if e.cfg.NoiseFactor > 0 {
		return 1 + e.cfg.NoiseFactor*e.rng.ExpFloat64()
	}
	return 1
}
