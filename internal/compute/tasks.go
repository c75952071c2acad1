package compute

import (
	"cumulon/internal/lang"
	"cumulon/internal/plan"
	"cumulon/internal/store"
)

// Span is a half-open chunk [Lo, Hi) of a tile axis.
type Span struct{ Lo, Hi int }

// PartitionAxis cuts n tile indices into parts balanced chunks.
func PartitionAxis(n, parts int) []Span {
	if parts > n {
		parts = n
	}
	out := make([]Span, 0, parts)
	for p := 0; p < parts; p++ {
		lo := p * n / parts
		hi := (p + 1) * n / parts
		if hi > lo {
			out = append(out, Span{lo, hi})
		}
	}
	return out
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
	return &Task{Env: env, Fn: func(c *Ctx) error {
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
	return &Task{Env: env, Fn: func(c *Ctx) error {
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
	return &Task{Env: env, Fn: func(c *Ctx) error {
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
	return &Task{Env: env, Fn: func(c *Ctx) error {
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
