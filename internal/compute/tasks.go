package compute

import (
	"cumulon/internal/lang"
	"cumulon/internal/plan"
	"cumulon/internal/store"
)

// Span is the planner's: how a split cuts an axis (plan.PartitionAxis) is
// defined once, for the work profiles and for the tasks.
type Span = plan.Span

// refs returns how many leaf tiles one evaluation of p reads at most (every
// leaf of the job for a hand-built job without a tape).
func refs(p *plan.TileProgram, j *plan.Job) int {
	if p == nil {
		return len(j.Leaves)
	}
	return len(p.Refs)
}

// mulOps bounds the trace of a multiply chunk: the prologue tiles of both
// sides, plus perOut reads and writes per output tile.
func mulOps(j *plan.Job, is, js, ks Span, perOut int) int {
	return is.Len()*ks.Len()*refs(j.LProg, j) + ks.Len()*js.Len()*refs(j.RProg, j) + is.Len()*js.Len()*perOut
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
// fused element-wise expression over the (is x js) output tiles. The
// compiled tape (j.Prog) runs one fused pass per tile; Env.Interpret (or a
// hand-built job without a tape) falls back to the tree-walker oracle.
func NewMapTask(env Env, j *plan.Job, is, js Span) *Task {
	return &Task{Env: env, ops: is.Len() * js.Len() * (refs(j.Prog, j) + 1), Fn: func(c *Ctx) error {
		for ti := is.Lo; ti < is.Hi; ti++ {
			for tj := js.Lo; tj < js.Hi; tj++ {
				if j.Prog != nil && !env.Interpret {
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
					continue
				}
				tile, err := c.evalTile(j.Expr, j.Leaves, ti, tj, nil)
				if err != nil {
					return err
				}
				if err := c.writeTile(j.Out, ti, tj, tile); err != nil {
					return err
				}
			}
		}
		return nil
	}}
}

// NewMulTask builds the compute task of one Mul-job chunk over the inner
// span ks, writing to outMeta (the job output, or a k-split partial) with
// the given epilogue (nil for partials).
func NewMulTask(env Env, j *plan.Job, outMeta store.Meta, epilogue lang.Expr, is, js, ks Span) *Task {
	perOut := 1 // the write
	if epilogue != nil {
		perOut += refs(j.EpiProg, j)
	}
	return &Task{Env: env, ops: mulOps(j, is, js, ks, perOut), Fn: func(c *Ctx) error {
		// With compiled tapes the epilogue fuses into the final k step's
		// blocked GEMM write-back inside mulTile; the tree-walker oracle
		// applies it as a separate pass over the finished product.
		fuseEpi := epilogue != nil && j.EpiProg != nil && !env.Interpret
		for ti := is.Lo; ti < is.Hi; ti++ {
			for tj := js.Lo; tj < js.Hi; tj++ {
				var epi *plan.TileProgram
				if fuseEpi {
					epi = j.EpiProg
				}
				acc, err := c.mulTile(j, ti, tj, ks, epi)
				if err != nil {
					return err
				}
				out := acc
				if epilogue != nil && !fuseEpi {
					r, cc := j.Out.TileShape(ti, tj)
					out, _, _, err = c.evalTileShaped(epilogue, j.Leaves, ti, tj, acc, r, cc)
					if err != nil {
						return err
					}
				}
				if err := c.writeTile(outMeta, ti, tj, out); err != nil {
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
// partial matrices tile-wise and apply the job epilogue.
func NewAggTask(env Env, j *plan.Job, partials []store.Meta, is, js Span) *Task {
	ops := is.Len() * js.Len() * (len(partials) + refs(j.EpiProg, j) + 1)
	return &Task{Env: env, ops: ops, Fn: func(c *Ctx) error {
		for ti := is.Lo; ti < is.Hi; ti++ {
			for tj := js.Lo; tj < js.Hi; tj++ {
				acc, err := c.sumTiles(partials, ti, tj)
				if err != nil {
					return err
				}
				out := acc
				if j.Epilogue != nil {
					r, cc := j.Out.TileShape(ti, tj)
					if j.EpiProg != nil && !env.Interpret {
						// Compiled epilogue: one in-place pass over the
						// summed accumulator.
						if err := c.applyProgramInPlace(j.EpiProg, j.Leaves, ti, tj, r, cc, acc); err != nil {
							return err
						}
					} else {
						out, _, _, err = c.evalTileShaped(j.Epilogue, j.Leaves, ti, tj, acc, r, cc)
						if err != nil {
							return err
						}
					}
				}
				if err := c.writeTile(j.Out, ti, tj, out); err != nil {
					return err
				}
				freeTile(acc)
			}
		}
		return nil
	}}
}
