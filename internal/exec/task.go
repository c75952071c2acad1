package exec

import (
	"cumulon/internal/compute"
	"cumulon/internal/dfs"
	"cumulon/internal/plan"
)

// buildHints declares the matrices a job's phases write, its output and any
// k-split partials, at their grids, and returns per phase the node each
// task's locality hint prefers (-1 for none). The hints look their tiles up
// in the same hold of the file system, before any task runs. The tasks
// themselves are the compute backend's to build, and only one that computes
// them does; the engine replays each result on whichever node the scheduler
// picked.
func (e *Engine) buildHints(j *plan.Job, phases []plan.Phase) [][]int {
	out := make([][]int, len(phases))
	b := e.fs.Batch()
	defer b.Done()
	j.Out.Declare(b)
	for _, pm := range phases[0].Partials {
		pm.Declare(b)
	}
	for p := range phases {
		ph := &phases[p]
		out[p] = make([]int, ph.Tasks())
		for t := range out[p] {
			out[p][t] = hint(b, j, ph, t)
		}
	}
	return out
}

// hint returns the locality hint of task t of phase ph: the first live node
// holding the tile the task's first tape reads first — the map tape's or the
// left prologue's, the mask, or partial 0 — or -1.
func hint(b *dfs.Batch, j *plan.Job, ph *plan.Phase, t int) int {
	is, js, ks := ph.Task(t)
	switch ph.Kind {
	case plan.MapPhase:
		return leafNode(b, j.Prog.Refs, is.Lo, js.Lo)
	case plan.MulPhase:
		return leafNode(b, j.LProg.Refs, is.Lo, ks.Lo)
	case plan.MaskedPhase:
		return leafNode(b, []plan.LeafRef{j.Leaves[j.MaskLeaf]}, is.Lo, js.Lo)
	}
	return b.FirstReplicaNode(ph.Partials[0].Tile(is.Lo, js.Lo))
}

// leafNode returns the locality hint of a task whose first output tile is
// at logical coordinates (ti, tj): the first live node holding the tile
// there of the first of the leaves whose grid has one, or -1.
func leafNode(b *dfs.Batch, refs []plan.LeafRef, ti, tj int) int {
	for _, ref := range refs {
		ri, rj := ti, tj
		if ref.Transposed {
			ri, rj = tj, ti
		}
		if ri < ref.Meta.TileRows() && rj < ref.Meta.TileCols() {
			return b.FirstReplicaNode(ref.Meta.Tile(ri, rj))
		}
	}
	return -1
}

// applyResult replays a computed task's trace attributed to the attempt's
// node, adding its flops and bytes to rec: reads classified by the DFS or
// served by the node's memory cache, and the actual DFS writes with replica
// placement. Replay is always sequential in scheduling order — it is the
// only consumer of the placement rng and the caches — which is what keeps
// the engine deterministic regardless of how (and on how many goroutines)
// the trace was computed.
func (e *Engine) applyResult(res *compute.Result, rec *TaskRecord) error {
	rec.Flops += res.Flops
	node := rec.Node
	virtual := !e.cfg.Materialize
	nc := e.cacheFor(node)
	b := e.fs.Batch()
	defer b.Done()
	// On failure the attempt's partial writes — the writes before the op
	// that failed — are deleted, so a retry can replay the same trace
	// without tripping over its own half-finished output (DFS writes reject
	// existing files).
	fail := func(i int, err error) error {
		for _, op := range res.Ops[:i] {
			if op.Write {
				b.Delete(op.Tile)
			}
		}
		return err
	}
	for i := range res.Ops {
		op := &res.Ops[i]
		if op.Write {
			var err error
			if virtual {
				rec.WriteBytes += op.Size
				err = b.WriteVirtual(op.Tile, op.Size, node)
			} else {
				rec.WriteBytes += int64(len(op.Data))
				err = b.Write(op.Tile, op.Data, node)
			}
			if err != nil {
				return fail(i, err)
			}
			continue
		}
		// Read op. The trace holds at most one per (tile, format) per
		// task, so per-task read dedup is already done.
		if nc != nil {
			if entry, ok := nc.get(op.Tile); ok {
				// Virtual entries hit on any access; materialized ones
				// only when the node holds the requested format.
				hit := virtual || (op.Sparse && entry.hasSparse) || (!op.Sparse && entry.hasDense)
				if hit {
					rec.CacheReadBytes += entry.size
					continue
				}
			}
		}
		sp, err := b.ReadAccount(op.Tile, node)
		if err != nil {
			return fail(i, err)
		}
		rec.LocalReadBytes += sp.Local
		rec.RackReadBytes += sp.RackLocal
		rec.RemoteReadBytes += sp.Remote
		if nc != nil {
			nc.put(op.Tile, sp.Total(), !virtual && !op.Sparse, !virtual && op.Sparse)
		}
	}
	return nil
}
