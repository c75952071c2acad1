package exec

import (
	"fmt"

	"cumulon/internal/compute"
	"cumulon/internal/dfs"
	"cumulon/internal/plan"
	"cumulon/internal/store"
)

// work is the resource profile a task accumulated while running.
type work struct {
	flops       int64
	localBytes  int64
	rackBytes   int64 // non-local reads served within the reader's rack
	remoteBytes int64 // cross-rack reads
	cacheBytes  int64 // reads served from the node's memory cache (free)
	writeBytes  int64
}

// task is one schedulable unit: a compute-layer task plus the engine's
// placement hint. The tile math runs on the compute backend; the engine
// replays the resulting trace on whichever node the scheduler picked.
type task struct {
	index    int
	prefNode int // a node holding the task's first input tile (data-local), -1 if none
	ct       *compute.Task
}

// buildTasks constructs the phase lists of a job plus the temporary
// matrices to delete once the job finishes. The tasks' locality hints look
// their tiles up in one hold of the file system.
func (e *Engine) buildTasks(j *plan.Job) ([][]*task, []store.Meta, error) {
	b := e.fs.Batch()
	defer b.Done()
	switch j.Kind {
	case plan.MapKind:
		return [][]*task{e.buildMapTasks(b, j)}, nil, nil
	case plan.MulKind:
		return e.buildMulTasks(b, j)
	default:
		return nil, nil, fmt.Errorf("unknown job kind %v", j.Kind)
	}
}

func (e *Engine) buildMapTasks(b *dfs.Batch, j *plan.Job) []*task {
	iSpans := plan.PartitionAxis(j.ITiles(), j.Split.CI)
	jSpans := plan.PartitionAxis(j.JTiles(), j.Split.CJ)
	tasks := make([]*task, 0, len(iSpans)*len(jSpans))
	for _, is := range iSpans {
		for _, js := range jSpans {
			tasks = append(tasks, &task{
				index:    len(tasks),
				prefNode: leafNode(b, j.Prog.Refs, is.Lo, js.Lo),
				ct:       compute.NewMapTask(e.env, j, is, js),
			})
		}
	}
	return tasks
}

func (e *Engine) buildMulTasks(b *dfs.Batch, j *plan.Job) ([][]*task, []store.Meta, error) {
	iSpans := plan.PartitionAxis(j.ITiles(), j.Split.CI)
	jSpans := plan.PartitionAxis(j.JTiles(), j.Split.CJ)
	kSpans := plan.PartitionAxis(j.KTiles(), j.Split.CK)
	singleK := len(kSpans) == 1
	if j.MaskLeaf != "" {
		if !singleK {
			return nil, nil, fmt.Errorf("masked multiply cannot k-split (split %v)", j.Split)
		}
		return e.buildMaskedMulTasks(b, j, iSpans, jSpans)
	}

	// With k-splitting, each k-chunk writes a full partial matrix that a
	// second phase aggregates.
	var partials []store.Meta
	if !singleK {
		for c := range kSpans {
			pm := j.Out
			pm.Name = fmt.Sprintf("%s~p%d", j.Out.Name, c)
			pm.Sparse = false
			partials = append(partials, pm)
		}
	}

	phase1 := make([]*task, 0, len(iSpans)*len(jSpans)*len(kSpans))
	pref := make([]int, len(kSpans)) // the hint depends on (is, ks) only
	for _, is := range iSpans {
		for kc, ks := range kSpans {
			pref[kc] = leafNode(b, j.LProg.Refs, is.Lo, ks.Lo)
		}
		for _, js := range jSpans {
			for kc, ks := range kSpans {
				outMeta, epi := j.Out, j.EpiProg
				if !singleK {
					outMeta, epi = partials[kc], nil
				}
				phase1 = append(phase1, &task{
					index:    len(phase1),
					prefNode: pref[kc],
					ct:       compute.NewMulTask(e.env, j, outMeta, epi, is, js, ks),
				})
			}
		}
	}
	if singleK {
		return [][]*task{phase1}, nil, nil
	}

	// Phase 2: aggregate the partials and apply the epilogue.
	phase2 := make([]*task, 0, len(iSpans)*len(jSpans))
	for _, is := range iSpans {
		for _, js := range jSpans {
			phase2 = append(phase2, &task{
				index:    len(phase2),
				prefNode: b.FirstReplicaNode(partials[0].Tile(is.Lo, js.Lo)),
				ct:       compute.NewAggTask(e.env, j, partials, is, js),
			})
		}
	}
	return [][]*task{phase1, phase2}, partials, nil
}

// buildMaskedMulTasks constructs the tasks of a masked multiply: each
// task computes, for its output chunk, the product restricted to the
// sparse pattern's stored positions and writes sparse tiles.
func (e *Engine) buildMaskedMulTasks(b *dfs.Batch, j *plan.Job, iSpans, jSpans []compute.Span) ([][]*task, []store.Meta, error) {
	maskRef, ok := j.Leaves[j.MaskLeaf]
	if !ok {
		return nil, nil, fmt.Errorf("mask leaf %q unbound", j.MaskLeaf)
	}
	fullK := compute.Span{Lo: 0, Hi: j.KTiles()}
	var tasks []*task
	for _, is := range iSpans {
		for _, js := range jSpans {
			tasks = append(tasks, &task{
				index:    len(tasks),
				prefNode: leafNode(b, []plan.LeafRef{maskRef}, is.Lo, js.Lo),
				ct:       compute.NewMaskedMulTask(e.env, j, maskRef, is, js, fullK),
			})
		}
	}
	return [][]*task{tasks}, nil, nil
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

// applyResult replays a computed task's trace attributed to a node: read
// accounting against the DFS and the node's memory cache, and the actual
// DFS writes with replica placement. Replay is always sequential in
// scheduling order — it is the only consumer of the placement rng and the
// caches — which is what keeps the engine deterministic regardless of how
// (and on how many goroutines) the trace was computed.
func (e *Engine) applyResult(res *compute.Result, node int) (work, error) {
	w := work{flops: res.Flops}
	virtual := !e.cfg.Materialize
	nc := e.cacheFor(node)
	b := e.fs.Batch()
	defer b.Done()
	// On failure the attempt's partial writes — the writes before the op
	// that failed — are deleted, so a retry can replay the same trace
	// without tripping over its own half-finished output (DFS writes reject
	// existing files).
	fail := func(i int, err error) (work, error) {
		for _, op := range res.Ops[:i] {
			if op.Write {
				b.Delete(op.Tile)
			}
		}
		return w, err
	}
	for i := range res.Ops {
		op := &res.Ops[i]
		if op.Write {
			var err error
			if virtual {
				w.writeBytes += op.Size
				err = b.WriteVirtual(op.Tile, op.Size, node)
			} else {
				w.writeBytes += int64(len(op.Data))
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
					w.cacheBytes += entry.size
					continue
				}
			}
		}
		sp, err := b.ReadAccount(op.Tile, node)
		if err != nil {
			return fail(i, err)
		}
		w.localBytes += sp.Local
		w.rackBytes += sp.RackLocal
		w.remoteBytes += sp.Remote
		if nc != nil {
			nc.put(op.Tile, sp.Total(), !virtual && !op.Sparse, !virtual && op.Sparse)
		}
	}
	return w, nil
}
