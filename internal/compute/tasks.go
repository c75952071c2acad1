package compute

import "cumulon/internal/plan"

// Span is the planner's: which spans a job's tasks cover is decided once,
// by plan.Job.Phases, for the work profiles and for the tasks.
type Span = plan.Span

// KExtent returns the element extent of inner-dimension tile k.
func KExtent(kSize, tileSize, k int) int {
	ext := tileSize
	if r := kSize - k*tileSize; r < ext {
		ext = r
	}
	return ext
}

// PhaseTasks returns the tasks of phase ph of job j, in the phase's task
// order. A task is a value — its position in the phase and the package's
// function for the phase's kind — so building one allocates nothing.
func PhaseTasks(env Env, j *plan.Job, ph *plan.Phase) []Task {
	ts := make([]Task, ph.Tasks())
	for i := range ts {
		ts[i] = Task{Env: env, Job: j, Phase: ph, Index: i, Fn: phaseFns[ph.Kind]}
	}
	return ts
}

// phaseFns runs one task of each phase kind.
var phaseFns = [...]func(*Ctx, *Task) error{
	plan.MapPhase:    runMap,
	plan.MulPhase:    runMul,
	plan.MaskedPhase: runMasked,
	plan.AggPhase:    runAgg,
}

// ops bounds the length of the task's trace from its spans: per output tile
// the write, the epilogue's leaves and, by kind, the map tape's leaves, the
// mask or the partials; a product adds the prologue tiles of both sides. A
// task without a phase (a test's bare Fn) has no bound.
func (t *Task) ops() int {
	ph, j := t.Phase, t.Job
	if ph == nil {
		return 0
	}
	is, js, ks := ph.Task(t.Index)
	perOut := 1
	if epi := ph.Epilogue(j); epi != nil {
		perOut += len(epi.Refs)
	}
	switch ph.Kind {
	case plan.MapPhase:
		return is.Len() * js.Len() * (len(j.Prog.Refs) + perOut)
	case plan.AggPhase:
		return is.Len() * js.Len() * (len(ph.Partials) + perOut)
	case plan.MaskedPhase:
		perOut++
	}
	return is.Len()*ks.Len()*len(j.LProg.Refs) + ks.Len()*js.Len()*len(j.RProg.Refs) + is.Len()*js.Len()*perOut
}

// runMap evaluates a Map job's fused tape over the task's output tiles, one
// pass per tile.
func runMap(c *Ctx, t *Task) error {
	j := t.Job
	is, js, _ := t.Phase.Task(t.Index)
	for ti := is.Lo; ti < is.Hi; ti++ {
		for tj := js.Lo; tj < js.Hi; tj++ {
			rows, cols := j.Out.TileShape(ti, tj)
			tile, owned, err := c.evalProgram(j.Prog, j.Leaves, ti, tj, rows, cols, nil)
			if err != nil {
				return err
			}
			if err := c.writeTile(j.Out, ti, tj, tile); err != nil {
				return err
			}
			if owned {
				freeTile(tile)
			}
		}
	}
	return nil
}

// runMul multiplies over the task's K span into the matrix the phase says it
// writes (the job's output, or a k-split partial), with the phase's epilogue
// fused into the final k step's write-back inside mulTile.
func runMul(c *Ctx, t *Task) error {
	j, ph := t.Job, t.Phase
	is, js, ks := ph.Task(t.Index)
	out, epi := ph.Out(j, t.Index), ph.Epilogue(j)
	for ti := is.Lo; ti < is.Hi; ti++ {
		for tj := js.Lo; tj < js.Hi; tj++ {
			acc, err := c.mulTile(j, ti, tj, ks, epi)
			if err != nil {
				return err
			}
			if err := c.writeTile(out, ti, tj, acc); err != nil {
				return err
			}
			freeTile(acc)
		}
	}
	return nil
}

// runMasked computes the product restricted to the mask's stored positions
// over the task's output tiles, written sparsely.
func runMasked(c *Ctx, t *Task) error {
	j := t.Job
	is, js, ks := t.Phase.Task(t.Index)
	for ti := is.Lo; ti < is.Hi; ti++ {
		for tj := js.Lo; tj < js.Hi; tj++ {
			sp, err := c.mulTileMasked(j, j.Leaves[j.MaskLeaf], ti, tj, ks)
			if err != nil {
				return err
			}
			if err := c.writeSparseTile(j.Out, ti, tj, sp); err != nil {
				return err
			}
		}
	}
	return nil
}

// runAgg sums the phase's partials tile-wise and applies the epilogue in one
// in-place pass over the summed accumulator.
func runAgg(c *Ctx, t *Task) error {
	j, ph := t.Job, t.Phase
	is, js, _ := ph.Task(t.Index)
	epi := ph.Epilogue(j)
	for ti := is.Lo; ti < is.Hi; ti++ {
		for tj := js.Lo; tj < js.Hi; tj++ {
			acc, err := c.sumTiles(ph.Partials, ti, tj)
			if err != nil {
				return err
			}
			if epi != nil {
				r, cc := j.Out.TileShape(ti, tj)
				if err := c.applyProgramInPlace(epi, j.Leaves, ti, tj, r, cc, acc); err != nil {
					return err
				}
			}
			if err := c.writeTile(j.Out, ti, tj, acc); err != nil {
				return err
			}
			freeTile(acc)
		}
	}
	return nil
}
