package compute

import (
	"fmt"

	"cumulon/internal/lang"
	"cumulon/internal/linalg"
	"cumulon/internal/plan"
)

// The tree-walking evaluator: the differential oracle of the compiled tile
// pipelines. It evaluates a job's expressions node by node — one pass and
// one fresh intermediate tile per operator, the epilogue as a separate pass
// over the finished product — and records reads and flops as it goes. No
// task the engine builds runs it; the oracle* task functions below run the
// same four phase kinds over it, and the differential tests, the fuzz target
// and the benchmarks' naive arms hold the tapes to its Results bit for bit.

// taskFns is one evaluator's task function per phase kind.
type taskFns [len(phaseFns)]func(*Ctx, *Task) error

var (
	tapeFns   = taskFns(phaseFns)
	oracleFns = taskFns{plan.MapPhase: oracleMap, plan.MulPhase: oracleMul, plan.MaskedPhase: oracleMasked, plan.AggPhase: oracleAgg}
)

// evalTile evaluates a fused element-wise expression at logical tile
// coordinates (ti, tj). mm binds the MMVar placeholder (epilogues). In
// virtual mode the returned tile is nil but all reads and flops are
// traced.
func (c *Ctx) evalTile(e lang.Expr, leaves map[string]plan.LeafRef, ti, tj int, mm *linalg.Tile) (*linalg.Tile, error) {
	tile, _, _, err := c.evalTileShaped(e, leaves, ti, tj, mm, -1, -1)
	return tile, err
}

// evalTileShaped is evalTile tracking shapes so virtual mode can count
// flops without data. mmRows/mmCols give MMVar's shape when mm is nil.
func (c *Ctx) evalTileShaped(e lang.Expr, leaves map[string]plan.LeafRef, ti, tj int, mm *linalg.Tile, mmRows, mmCols int) (*linalg.Tile, int, int, error) {
	switch x := e.(type) {
	case lang.Var:
		if x.Name == plan.MMVar {
			if mm != nil {
				return mm, mm.Rows, mm.Cols, nil
			}
			return nil, mmRows, mmCols, nil
		}
		ref, ok := leaves[x.Name]
		if !ok {
			return nil, 0, 0, fmt.Errorf("unbound leaf %s", x.Name)
		}
		rows, cols := leafShape(ref, ti, tj)
		t, err := c.readLeafTile(ref, ti, tj)
		if err != nil {
			return nil, 0, 0, err
		}
		return t, rows, cols, nil
	case lang.Transpose:
		// Transposes are pushed to leaves by the planner; a residual one
		// here is a planner bug.
		return nil, 0, 0, fmt.Errorf("unexpected transpose in physical expression %s", e)
	case lang.Add:
		return c.zipTiles(x.L, x.R, leaves, ti, tj, mm, mmRows, mmCols, func(a, b float64) float64 { return a + b })
	case lang.Sub:
		return c.zipTiles(x.L, x.R, leaves, ti, tj, mm, mmRows, mmCols, func(a, b float64) float64 { return a - b })
	case lang.ElemMul:
		return c.zipTiles(x.L, x.R, leaves, ti, tj, mm, mmRows, mmCols, func(a, b float64) float64 { return a * b })
	case lang.ElemDiv:
		return c.zipTiles(x.L, x.R, leaves, ti, tj, mm, mmRows, mmCols, func(a, b float64) float64 { return a / b })
	case lang.Scale:
		t, rows, cols, err := c.evalTileShaped(x.X, leaves, ti, tj, mm, mmRows, mmCols)
		if err != nil {
			return nil, 0, 0, err
		}
		c.addFlops("scale", int64(rows)*int64(cols))
		if t == nil {
			return nil, rows, cols, nil
		}
		return linalg.Scale(t, x.S), rows, cols, nil
	case lang.Apply:
		t, rows, cols, err := c.evalTileShaped(x.X, leaves, ti, tj, mm, mmRows, mmCols)
		if err != nil {
			return nil, 0, 0, err
		}
		c.addFlops("apply", int64(rows)*int64(cols))
		if t == nil {
			return nil, rows, cols, nil
		}
		fn, ok := lang.Funcs[x.Fn]
		if !ok {
			return nil, 0, 0, fmt.Errorf("unknown function %s", x.Fn)
		}
		return linalg.Map(t, fn), rows, cols, nil
	default:
		return nil, 0, 0, fmt.Errorf("unexpected node %T in physical expression", e)
	}
}

func (c *Ctx) zipTiles(l, r lang.Expr, leaves map[string]plan.LeafRef, ti, tj int, mm *linalg.Tile, mmRows, mmCols int, f func(a, b float64) float64) (*linalg.Tile, int, int, error) {
	lt, rows, cols, err := c.evalTileShaped(l, leaves, ti, tj, mm, mmRows, mmCols)
	if err != nil {
		return nil, 0, 0, err
	}
	rt, rRows, rCols, err := c.evalTileShaped(r, leaves, ti, tj, mm, mmRows, mmCols)
	if err != nil {
		return nil, 0, 0, err
	}
	if rRows != rows || rCols != cols {
		return nil, 0, 0, fmt.Errorf("element-wise operands disagree at tile (%d,%d): left %s is %dx%d, right %s is %dx%d",
			ti, tj, l, rows, cols, r, rRows, rCols)
	}
	c.addFlops("zip", int64(rows)*int64(cols))
	if lt == nil || rt == nil {
		return nil, rows, cols, nil
	}
	return linalg.Zip(lt, rt, f), rows, cols, nil
}

// oracleMap is runMap over the tree-walker.
func oracleMap(c *Ctx, t *Task) error {
	j := t.Job
	is, js, _ := t.Phase.Task(t.Index)
	for ti := is.Lo; ti < is.Hi; ti++ {
		for tj := js.Lo; tj < js.Hi; tj++ {
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
}

// oracleMul is runMul over the tree-walker: prologues walked per k step and,
// where the phase has an epilogue, the epilogue expression applied as a
// second pass over the finished product.
func oracleMul(c *Ctx, t *Task) error {
	j, ph := t.Job, t.Phase
	is, js, ks := ph.Task(t.Index)
	var epilogue lang.Expr
	if ph.Epilogue(j) != nil {
		epilogue = j.Epilogue
	}
	for ti := is.Lo; ti < is.Hi; ti++ {
		for tj := js.Lo; tj < js.Hi; tj++ {
			acc, err := c.oracleMulTile(j, ti, tj, ks)
			if err != nil {
				return err
			}
			out := acc
			if epilogue != nil {
				r, cc := j.Out.TileShape(ti, tj)
				out, _, _, err = c.evalTileShaped(epilogue, j.Leaves, ti, tj, acc, r, cc)
				if err != nil {
					return err
				}
			}
			if err := c.writeTile(ph.Out(j, t.Index), ti, tj, out); err != nil {
				return err
			}
			freeTile(acc)
		}
	}
	return nil
}

// oracleMasked is runMasked over the tree-walker.
func oracleMasked(c *Ctx, t *Task) error {
	j := t.Job
	is, js, ks := t.Phase.Task(t.Index)
	for ti := is.Lo; ti < is.Hi; ti++ {
		for tj := js.Lo; tj < js.Hi; tj++ {
			sp, err := c.oracleMulTileMasked(j, j.Leaves[j.MaskLeaf], ti, tj, ks)
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

// oracleAgg is runAgg over the tree-walker.
func oracleAgg(c *Ctx, t *Task) error {
	j, ph := t.Job, t.Phase
	is, js, _ := ph.Task(t.Index)
	for ti := is.Lo; ti < is.Hi; ti++ {
		for tj := js.Lo; tj < js.Hi; tj++ {
			acc, err := c.sumTiles(ph.Partials, ti, tj)
			if err != nil {
				return err
			}
			out := acc
			if j.Epilogue != nil {
				r, cc := j.Out.TileShape(ti, tj)
				out, _, _, err = c.evalTileShaped(j.Epilogue, j.Leaves, ti, tj, acc, r, cc)
				if err != nil {
					return err
				}
			}
			if err := c.writeTile(j.Out, ti, tj, out); err != nil {
				return err
			}
			freeTile(acc)
		}
	}
	return nil
}

// oracleMulTile is mulTile with both prologues walked as expression trees
// and no fused epilogue. It picks the same kernels for the same operand
// shapes (sparse-left SpGEMM, raw transposed leaves into GemmTA/GemmTB), so
// any difference from mulTile is the evaluator's.
func (c *Ctx) oracleMulTile(j *plan.Job, ti, tj int, ks Span) (*linalg.Tile, error) {
	outRows, outCols := j.Out.TileShape(ti, tj)
	var acc *linalg.Tile
	if !c.virtual() {
		acc = newTile(outRows, outCols, true)
	}
	lRef, lBare := bareSparseLeaf(j.LExpr, j.Leaves)
	lTRef, lTrans := bareTransposedDenseLeaf(j.LExpr, j.Leaves)
	rTRef, rTrans := bareTransposedDenseLeaf(j.RExpr, j.Leaves)
	for k := ks.Lo; k < ks.Hi; k++ {
		kk := KExtent(j.KSize, j.Out.TileSize, k)
		var rt *linalg.Tile
		var err error
		if rTrans && !lBare {
			rt, err = c.readDenseTile(rTRef.Meta, tj, k)
		} else {
			rt, _, _, err = c.evalTileShaped(j.RExpr, j.Leaves, k, tj, nil, kk, outCols)
		}
		if err != nil {
			return nil, err
		}
		if lBare {
			if err := c.mulSparseLeft(acc, lRef, ti, k, rt, kk, outCols); err != nil {
				return nil, err
			}
			continue
		}
		var lt *linalg.Tile
		if lTrans {
			lt, err = c.readDenseTile(lTRef.Meta, k, ti)
		} else {
			lt, _, _, err = c.evalTileShaped(j.LExpr, j.Leaves, ti, k, nil, outRows, kk)
		}
		if err != nil {
			return nil, err
		}
		c.addFlops("gemm", linalg.GemmFlops(outRows, kk, outCols))
		if acc == nil {
			continue
		}
		switch {
		case lTrans && rTrans:
			linalg.GemmTB(acc, c.transposedTile(lTRef.Meta.Tile(k, ti)), rt)
		case lTrans:
			linalg.GemmTA(acc, lt, rt)
		case rTrans:
			linalg.GemmTB(acc, lt, rt)
		default:
			linalg.Gemm(acc, lt, rt)
		}
	}
	return acc, nil
}

// oracleMulTileMasked is mulTileMasked with both prologues walked as
// expression trees.
func (c *Ctx) oracleMulTileMasked(j *plan.Job, maskRef plan.LeafRef, ti, tj int, ks Span) (*linalg.CSRTile, error) {
	pat, err := c.readLeafSparseTile(maskRef, ti, tj)
	if err != nil {
		return nil, err
	}
	outRows, outCols := j.Out.TileShape(ti, tj)
	var acc *linalg.CSRTile
	for k := ks.Lo; k < ks.Hi; k++ {
		kk := KExtent(j.KSize, j.Out.TileSize, k)
		lt, _, _, err := c.evalTileShaped(j.LExpr, j.Leaves, ti, k, nil, outRows, kk)
		if err != nil {
			return nil, err
		}
		rt, _, _, err := c.evalTileShaped(j.RExpr, j.Leaves, k, tj, nil, kk, outCols)
		if err != nil {
			return nil, err
		}
		if c.virtual() {
			estNNZ := maskRef.Meta.EffDensity() * float64(outRows) * float64(outCols)
			c.addFlops("masked-gemm", int64(2*estNNZ*float64(kk)))
			continue
		}
		c.addFlops("masked-gemm", 2*int64(pat.NNZ())*int64(kk))
		part := linalg.MaskedGemm(pat, lt, rt)
		if acc == nil {
			acc = part
		} else {
			acc = linalg.SpZip(acc, part, func(a, b float64) float64 { return a + b })
		}
	}
	return acc, nil
}
