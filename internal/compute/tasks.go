package compute

import (
	"cumulon/internal/plan"
	"cumulon/internal/store"
)

// Span is the planner's: how a split cuts an axis (plan.PartitionAxis) is
// defined once, for the work profiles and for the tasks.
type Span = plan.Span

// mulOps bounds the trace of a multiply chunk: the prologue tiles of both
// sides, plus perOut reads and writes per output tile.
func mulOps(j *plan.Job, is, js, ks Span, perOut int) int {
	return is.Len()*ks.Len()*len(j.LProg.Refs) + ks.Len()*js.Len()*len(j.RProg.Refs) + is.Len()*js.Len()*perOut
}

// KExtent returns the element extent of inner-dimension tile k.
func KExtent(kSize, tileSize, k int) int {
	ext := tileSize
	if r := kSize - k*tileSize; r < ext {
		ext = r
	}
	return ext
}

// NewMapTask builds the compute task of one Map-job chunk: evaluate the
// fused element-wise tape over the (is x js) output tiles, one pass per
// tile.
func NewMapTask(env Env, j *plan.Job, is, js Span) *Task {
	return &Task{Env: env, ops: is.Len() * js.Len() * (len(j.Prog.Refs) + 1), Fn: func(c *Ctx) error {
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
	}}
}

// NewMulTask builds the compute task of one Mul-job chunk over the inner
// span ks, writing to outMeta (the job output, or a k-split partial). epi
// is the epilogue tape to fuse into the final k step's write-back inside
// mulTile: the job's for a whole-k chunk, nil for a partial.
func NewMulTask(env Env, j *plan.Job, outMeta store.Meta, epi *plan.TileProgram, is, js, ks Span) *Task {
	perOut := 1 // the write
	if epi != nil {
		perOut += len(epi.Refs)
	}
	return &Task{Env: env, ops: mulOps(j, is, js, ks, perOut), Fn: func(c *Ctx) error {
		for ti := is.Lo; ti < is.Hi; ti++ {
			for tj := js.Lo; tj < js.Hi; tj++ {
				acc, err := c.mulTile(j, ti, tj, ks, epi)
				if err != nil {
					return err
				}
				if err := c.writeTile(outMeta, ti, tj, acc); err != nil {
					return err
				}
				freeTile(acc)
			}
		}
		return nil
	}}
}

// NewMaskedMulTask builds the compute task of one masked-multiply chunk:
// the product restricted to the mask's stored positions, written sparsely.
func NewMaskedMulTask(env Env, j *plan.Job, maskRef plan.LeafRef, is, js, ks Span) *Task {
	// Per output tile: the mask read and the write.
	return &Task{Env: env, ops: mulOps(j, is, js, ks, 2), Fn: func(c *Ctx) error {
		for ti := is.Lo; ti < is.Hi; ti++ {
			for tj := js.Lo; tj < js.Hi; tj++ {
				sp, err := c.mulTileMasked(j, maskRef, ti, tj, ks)
				if err != nil {
					return err
				}
				if err := c.writeSparseTile(j.Out, ti, tj, sp); err != nil {
					return err
				}
			}
		}
		return nil
	}}
}

// NewAggTask builds the compute task of one aggregation chunk: sum the
// partial matrices tile-wise and apply the job's epilogue tape in one
// in-place pass over the summed accumulator.
func NewAggTask(env Env, j *plan.Job, partials []store.Meta, is, js Span) *Task {
	perOut := len(partials) + 1
	if j.Epilogue != nil {
		perOut += len(j.EpiProg.Refs)
	}
	return &Task{Env: env, ops: is.Len() * js.Len() * perOut, Fn: func(c *Ctx) error {
		for ti := is.Lo; ti < is.Hi; ti++ {
			for tj := js.Lo; tj < js.Hi; tj++ {
				acc, err := c.sumTiles(partials, ti, tj)
				if err != nil {
					return err
				}
				if j.Epilogue != nil {
					r, cc := j.Out.TileShape(ti, tj)
					if err := c.applyProgramInPlace(j.EpiProg, j.Leaves, ti, tj, r, cc, acc); err != nil {
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
	}}
}
