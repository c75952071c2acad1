package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"cumulon/internal/chaos"
	"cumulon/internal/ckpt"
	"cumulon/internal/cloud"
	"cumulon/internal/dfs"
	"cumulon/internal/obs"
	"cumulon/internal/plan"
	"cumulon/internal/store"
)

// ProgramKilled is the error Run returns when the chaos schedule's
// kill-program entry fires. The program is dead from time At on: no job
// and no checkpoint write that would end after it counts, so only the
// checkpoints written by then survive, and a later run with Resume set
// picks up from the newest of them.
type ProgramKilled struct{ At float64 }

func (e *ProgramKilled) Error() string {
	return fmt.Sprintf("exec: program killed at %.3fs", e.At)
}

// ckptPoint is one boundary the run will checkpoint at, keyed in the
// points map by its LastJob.
type ckptPoint struct {
	iter int // 1-based ordinal among the plan's boundaries
	b    plan.Boundary
}

// checkpointSetup validates the checkpoint/resume configuration against
// the plan, computes the program and config identity hashes, and
// returns the boundaries to checkpoint at, keyed by boundary job ID.
// Returns nil when checkpointing is off.
func (e *Engine) checkpointSetup(p *plan.Plan) (map[int]ckptPoint, error) {
	every := e.cfg.CheckpointEvery
	if every < 0 {
		return nil, fmt.Errorf("exec: negative CheckpointEvery %d", every)
	}
	if e.cfg.Resume {
		if every == 0 {
			return nil, fmt.Errorf("exec: Resume requires CheckpointEvery > 0 (the cadence is part of the checkpoint identity)")
		}
		if e.cfg.CheckpointStore == nil {
			return nil, fmt.Errorf("exec: Resume requires a CheckpointStore")
		}
	}
	if every == 0 {
		return nil, nil
	}
	// Checkpoints are barriers on the global clock; the overlap
	// scheduler's per-job release bookkeeping cannot be restored from one.
	if e.cfg.OverlapJobs {
		return nil, fmt.Errorf("exec: checkpointing requires barrier scheduling (disable OverlapJobs)")
	}
	e.progHash = ckpt.HashString(p.Program.String())
	e.cfgHash = e.configHash(p)
	lastJob := -1
	if n := len(p.Jobs); n > 0 {
		lastJob = p.Jobs[n-1].ID
	}
	points := map[int]ckptPoint{}
	for i, b := range p.Boundaries {
		if (i+1)%every != 0 {
			continue
		}
		if b.LastJob >= lastJob {
			continue // nothing runs after it; a checkpoint there is pure cost
		}
		points[b.LastJob] = ckptPoint{iter: i + 1, b: b}
	}
	return points, nil
}

// configHash fingerprints every configuration input that shapes the
// run's timeline and placement. A checkpoint resumes only under the
// exact same fingerprint. The chaos schedule is included minus its
// kill-program entry: the killed run and the resuming run differ only
// in that entry, and it never affects the surviving prefix. The literal
// interp=false stands where an evaluator switch used to be hashed; it
// stays so that checkpoints written before the switch was removed resume.
func (e *Engine) configHash(p *plan.Plan) string {
	s := fmt.Sprintf(
		"type=%s nodes=%d slots=%d repl=%d mat=%t interp=false seed=%d noise=%g jobstartup=%g retries=%d backoff=%g rack=%d xrack=%g cache=%g spec=%t tile=%d every=%d chaos=%q targets=%v",
		e.cfg.Cluster.Type.Name, e.cfg.Cluster.Nodes, e.cfg.Cluster.Slots,
		e.cfg.Replication, e.cfg.Materialize,
		e.cfg.Seed, e.cfg.NoiseFactor, cloud.JobStartupSec,
		e.cfg.MaxTaskRetries, retryBackoffSec,
		e.cfg.RackSize, e.cfg.CrossRackPenalty, e.cfg.CacheFraction,
		e.cfg.Speculation, p.TileSize, e.cfg.CheckpointEvery,
		sanitizeChaos(e.cfg.Chaos).String(), sanitizeTargets(e.cfg.Chaos),
	)
	return ckpt.HashString(s)
}

// sanitizeChaos strips the kill-program entry from a schedule; a
// schedule that injects nothing else collapses to nil so that a plain
// run and a run that differs only by kill-program@t hash identically.
func sanitizeChaos(s *chaos.Schedule) *chaos.Schedule {
	if s == nil {
		return nil
	}
	c := *s
	c.KillProgramAt = 0
	if len(c.Crashes) == 0 && c.TaskFaultProb == 0 && c.ReadFaultProb == 0 && len(c.Targets) == 0 {
		return nil
	}
	return &c
}

// sanitizeTargets renders the targeted faults (not covered by
// Schedule.String) for the config fingerprint.
func sanitizeTargets(s *chaos.Schedule) []chaos.TargetFault {
	if s == nil {
		return nil
	}
	return s.Targets
}

// mixSeed derives the boundary-local seed for stream s (splitmix64
// finalizer): every iteration boundary restarts the noise and placement
// random streams from mixSeed(seed, stmt), which is what makes a
// resumed tail bit-identical to the uninterrupted run's tail.
func mixSeed(seed int64, stmt int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(stmt+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// boundaryReset is the deterministic state barrier taken at every
// checkpoint boundary, in the checkpointing run and the resuming run
// alike: node tile caches flush (their contents are not persisted) and
// both random streams reseed from the boundary position.
func (e *Engine) boundaryReset(stmt int) {
	e.resetCaches()
	e.rng = rand.New(rand.NewSource(mixSeed(e.cfg.Seed, stmt)))
	e.fs.Reseed(mixSeed(e.cfg.Seed+1, stmt))
}

// writeCheckpoint persists the program state at a boundary — every
// matrix materialized by the jobs up to it, with exact block placement —
// charges the write to the virtual clock as a CatCheckpoint span, and
// performs the boundary reset. Returns the post-checkpoint clock, or
// ProgramKilled, saving nothing, if the write would end after the kill.
func (e *Engine) writeCheckpoint(p *plan.Plan, pt ckptPoint, clock float64, m *RunMetrics, prog obs.SpanID) (float64, error) {
	man := &ckpt.Manifest{
		FormatVersion:  ckpt.Version,
		Program:        e.progHash,
		Config:         e.cfgHash,
		Iter:           pt.iter,
		Stmt:           pt.b.Stmt,
		BoundaryJob:    pt.b.LastJob,
		ChaosDelivered: e.chaos.Delivered(),
	}
	payloads := map[string][]byte{}
	tileBytes, err := e.checkpointTiles(p, pt, man, payloads)
	if err != nil {
		return 0, fmt.Errorf("exec: checkpoint@s%d: %w", pt.b.Stmt, err)
	}
	for n := 0; n < e.cfg.Cluster.Nodes; n++ {
		if !e.fs.NodeAlive(n) {
			man.DeadNodes = append(man.DeadNodes, n)
		}
	}
	// The checkpoint streams every tile back to durable storage; model it
	// as one task writing the checkpointed bytes at replication cost,
	// serialized on the global clock (it is a barrier).
	dur := e.baseTaskSeconds(&TaskRecord{WriteBytes: tileBytes})
	end := clock + dur
	if killAt := e.chaos.KillProgramAt(); killAt > 0 && end > killAt {
		return 0, &ProgramKilled{At: killAt}
	}
	man.ClockSec = end
	if err := man.Seal(); err != nil {
		return 0, err
	}
	if e.cfg.CheckpointStore != nil {
		if err := e.cfg.CheckpointStore.Save(&ckpt.Checkpoint{Manifest: man, Payloads: payloads}); err != nil {
			return 0, fmt.Errorf("exec: checkpoint@s%d: %w", pt.b.Stmt, err)
		}
	}
	if e.rec != obs.Nop() {
		name := fmt.Sprintf("checkpoint@s%d", pt.b.Stmt)
		js := e.rec.Start(obs.KindJob, name, prog, clock)
		ps := e.rec.Start(obs.KindPhase, name+"/p0", js, clock)
		if e.rec.Enabled() {
			// Negative JobID keeps checkpoint spans out of the real jobs'
			// ID space for the critical-path and timeline consumers.
			e.rec.SetAttrs(js, obs.Attrs{JobID: -pt.b.Stmt})
			e.rec.SetAttrs(ps, obs.Attrs{JobID: -pt.b.Stmt, Phase: 0})
			ts := e.rec.Start(obs.KindTask, name+"/t0", ps, clock)
			var b obs.Breakdown
			b[obs.CatCheckpoint] = dur
			e.rec.SetAttrs(ts, obs.Attrs{
				JobID: -pt.b.Stmt, Phase: 0, Index: 0, Node: -1, Slot: -1,
				WriteBytes: tileBytes, Breakdown: b,
			})
			e.rec.End(ts, end)
		}
		e.rec.End(ps, end)
		e.rec.End(js, end)
	}
	m.Checkpoints++
	m.CheckpointBytes += tileBytes
	m.CheckpointSeconds += dur
	e.boundaryReset(pt.b.Stmt)
	return end, nil
}

// checkpointTiles appends to man every matrix the jobs up to pt's boundary
// wrote, each tile with its exact placement, and, in a materialized run,
// its payload to payloads by digest. It walks each matrix's grid by address
// in one hold of the file system and lists the tiles in sort.Strings order
// of their paths, the order of every manifest written before. It returns
// the bytes the tiles hold.
func (e *Engine) checkpointTiles(p *plan.Plan, pt ckptPoint, man *ckpt.Manifest, payloads map[string][]byte) (int64, error) {
	b := e.fs.Batch()
	defer b.Done()
	var tileBytes int64
	for _, j := range p.Jobs {
		if j.ID > pt.b.LastJob {
			continue
		}
		mx := ckpt.Matrix{
			Name: j.Out.Name, Rows: j.Out.Rows, Cols: j.Out.Cols,
			TileSize: j.Out.TileSize, Sparse: j.Out.Sparse, Density: j.Out.Density,
		}
		for ti := range j.Out.TileRows() {
			for tj := range j.Out.TileCols() {
				a := j.Out.Tile(ti, tj)
				size, reps, ok := b.Placement(a)
				if !ok {
					continue
				}
				t := ckpt.Tile{Path: j.Out.TilePath(ti, tj), Bytes: size, Replicas: reps}
				if e.cfg.Materialize {
					data, err := b.Peek(a)
					if err != nil {
						return 0, err
					}
					t.Digest = ckpt.HashBytes(data)
					payloads[t.Digest] = data
				}
				tileBytes += size
				mx.Tiles = append(mx.Tiles, t)
			}
		}
		if len(mx.Tiles) == 0 {
			return 0, fmt.Errorf("matrix %s has no tiles", j.Out.Name)
		}
		slices.SortFunc(mx.Tiles, func(x, y ckpt.Tile) int { return strings.Compare(x.Path, y.Path) })
		man.Matrices = append(man.Matrices, mx)
	}
	return tileBytes, nil
}

// restoreCheckpoint loads the newest valid checkpoint for this
// (program, config) identity and rebuilds the boundary state: dead
// nodes, tile placement and payloads, the chaos cursor, the random
// streams, and the clock. Returns the boundary job ID and clock, or
// ok=false when no checkpoint exists (the run starts from scratch).
func (e *Engine) restoreCheckpoint(p *plan.Plan, m *RunMetrics) (resumeJob int, clock float64, ok bool, err error) {
	c, err := e.cfg.CheckpointStore.Latest(e.progHash, e.cfgHash)
	if err != nil {
		return 0, 0, false, fmt.Errorf("exec: resume: %w", err)
	}
	if c == nil {
		return 0, 0, false, nil
	}
	man := c.Manifest
	// Stores validate on load; re-check here so a custom Store cannot
	// hand the engine a corrupted manifest.
	if err := man.Validate(); err != nil {
		return 0, 0, false, fmt.Errorf("exec: resume: %w", err)
	}
	if man.Program != e.progHash || man.Config != e.cfgHash {
		return 0, 0, false, fmt.Errorf("exec: resume: checkpoint identity mismatch")
	}
	match := false
	for _, b := range p.Boundaries {
		if b.Stmt == man.Stmt && b.LastJob == man.BoundaryJob {
			match = true
			break
		}
	}
	if !match {
		return 0, 0, false, fmt.Errorf("exec: resume: manifest boundary (stmt %d, job %d) is not a boundary of this plan", man.Stmt, man.BoundaryJob)
	}
	// The manifest must cover exactly the outputs of the skipped jobs.
	want := map[string]bool{}
	for _, j := range p.Jobs {
		if j.ID <= man.BoundaryJob {
			want[j.Out.Name] = true
		}
	}
	got := map[string]bool{}
	for _, mx := range man.Matrices {
		got[mx.Name] = true
	}
	for name := range want {
		if !got[name] {
			return 0, 0, false, fmt.Errorf("exec: resume: manifest is missing matrix %s", name)
		}
	}
	for name := range got {
		if !want[name] {
			return 0, 0, false, fmt.Errorf("exec: resume: manifest has unexpected matrix %s", name)
		}
	}
	if e.cfg.Materialize {
		if err := c.VerifyPayloads(); err != nil {
			return 0, 0, false, fmt.Errorf("exec: resume: %w", err)
		}
	}
	// Dead nodes first, so rehydration never triggers re-replication:
	// the recorded placements are already post-recovery.
	for _, n := range man.DeadNodes {
		if n >= e.cfg.Cluster.Nodes {
			return 0, 0, false, fmt.Errorf("exec: resume: dead node %d outside cluster of %d", n, e.cfg.Cluster.Nodes)
		}
		e.fs.MarkDead(n)
	}
	if err := e.restoreTiles(p, c); err != nil {
		return 0, 0, false, fmt.Errorf("exec: resume: %w", err)
	}
	e.chaos.SkipDelivered(man.ChaosDelivered)
	e.boundaryReset(man.Stmt)
	m.ResumedFromStmt = man.Stmt
	for _, j := range p.Jobs {
		if j.ID <= man.BoundaryJob {
			m.ResumeSkippedJobs++
		}
	}
	return man.BoundaryJob, man.ClockSec, true, nil
}

// restoreTiles places c's tiles back where the checkpointed run had them,
// in one hold of the file system. The manifest's matrices are the skipped
// jobs' outputs: each is declared at its grid, and each tile goes to the cell
// of that grid its path names; a tile whose path names no cell of its own
// matrix's grid is refused.
func (e *Engine) restoreTiles(p *plan.Plan, c *ckpt.Checkpoint) error {
	b := e.fs.Batch()
	defer b.Done()
	metas := map[string]store.Meta{}
	for _, j := range p.Jobs {
		if j.ID <= c.Manifest.BoundaryJob {
			j.Out.Declare(b)
			metas[j.Out.Name] = j.Out
		}
	}
	for _, mx := range c.Manifest.Matrices {
		for _, t := range mx.Tiles {
			a, ok := tileAt(metas[mx.Name], t.Path)
			if !ok {
				return fmt.Errorf("tile %s is not a tile of matrix %s", t.Path, mx.Name)
			}
			var data []byte
			if e.cfg.Materialize {
				if t.Digest == "" {
					return fmt.Errorf("tile %s has no payload (checkpoint from a virtual run)", t.Path)
				}
				if data = c.Payloads[t.Digest]; data == nil {
					return fmt.Errorf("missing payload for %s", t.Path)
				}
			}
			if err := b.WritePlaced(a, data, t.Bytes, t.Replicas); err != nil {
				return err
			}
		}
	}
	return nil
}

// tileAt returns the address of the tile of m's grid whose path is path,
// and false when path names none: the text of a manifest back to the one
// name a tile has.
func tileAt(m store.Meta, path string) (dfs.TileAddr, bool) {
	name, ok := strings.CutPrefix(path, dfs.MatrixRoot+m.Name+"/")
	r, c, ok2 := strings.Cut(name, "_")
	ti, err := strconv.Atoi(r)
	tj, err2 := strconv.Atoi(c)
	if !ok || !ok2 || err != nil || err2 != nil || ti < 0 || ti >= m.TileRows() || tj < 0 || tj >= m.TileCols() {
		return dfs.TileAddr{}, false
	}
	return m.Tile(ti, tj), m.TilePath(ti, tj) == path
}

// allSlots builds slot states for every node, dead ones flagged, so a
// slot's global index is the same whichever nodes have died — before
// the run, during it, or before the checkpoint a run resumes from.
func (e *Engine) allSlots() []*slotState {
	states := make([]slotState, e.cfg.Cluster.Nodes*e.cfg.Cluster.Slots)
	slots := make([]*slotState, len(states))
	for i := range states {
		n := i / e.cfg.Cluster.Slots
		states[i] = slotState{node: n, dead: !e.fs.NodeAlive(n)}
		slots[i] = &states[i]
	}
	return slots
}
