package compute

import (
	"fmt"

	"cumulon/internal/lang"
	"cumulon/internal/linalg"
	"cumulon/internal/plan"
)

// Compiled tile-pipeline executor.
//
// A plan.TileProgram is a post-order op tape over leaf slots plus the
// MMVar placeholder. The executor evaluates the tape in one fused pass
// over the output tile: leaf tiles are read once (in slot order, which is
// the expression's left-to-right read order), the destination comes from
// the tile pool, and the tape runs chunk-vectorized over a small stack of
// fixed-size buffers, so steady-state evaluation allocates nothing. It is
// the only evaluator tasks run. Its differential oracle, a tree-walker over
// the job's expressions, lives in oracle_test.go: the two must produce
// bit-identical tiles *and* identical Result traces (reads, flops, kernel
// stats), which the differential and fuzz tests in pipeline_test.go
// enforce.

const (
	// evalChunk is the vectorization width of the tape executor: operand
	// chunks of this many elements stream through the stack buffers.
	evalChunk = 256
	// maxFastStack is the operand-stack depth whose buffers live on the
	// executor's stack; a deeper program (beyond 8 pending operands, i.e.
	// pathological nesting) takes one heap buffer of its depth instead.
	maxFastStack = 8
)

// RunTileProgram evaluates the compiled pipeline p element-wise over n =
// len(dst) elements. leaves[s] backs leaf slot s (length ≥ n) and mm
// backs the TileMM placeholder (nil when p.NeedsMM is false). dst may
// alias mm: every chunk's loads complete before its store, so in-place
// epilogue application is exact.
func RunTileProgram(p *plan.TileProgram, dst []float64, leaves [][]float64, mm []float64) {
	runProgramSpan(p, dst, leaves, mm, 0, len(dst))
}

// runTileProgramRegion evaluates p over the rows×cols sub-block at
// (i0, j0) of row-major tiles with the given stride. The GEMM epilogue
// hook uses it to transform freshly finished output panels while they
// are cache-resident.
func runTileProgramRegion(p *plan.TileProgram, dst []float64, leaves [][]float64, mm []float64, stride, i0, j0, rows, cols int) {
	for r := 0; r < rows; r++ {
		lo := (i0+r)*stride + j0
		runProgramSpan(p, dst, leaves, mm, lo, lo+cols)
	}
}

// runProgramSpan evaluates p over dst[lo:hi]. The operand stack is one
// chunk buffer per stack position — fixed arrays up to maxFastStack, one
// heap buffer of p.MaxStack chunks beyond — and a source per position: leaf
// and mm pushes are aliases into the source slices (no copy), and operator
// results reuse the buffer at their resulting stack position, so a chunk's
// evaluation touches each input element exactly once. A position's source
// is a number — a leaf slot, fromMM or fromBuf — not a slice: a slice of the
// fixed buffers stored in a stack that may be on the heap would move them to
// the heap too.
func runProgramSpan(p *plan.TileProgram, dst []float64, leaves [][]float64, mm []float64, lo, hi int) {
	const fromMM, fromBuf = -1, -2 // a source: a leaf slot, mm or the buffer
	var fixed [maxFastStack][evalChunk]float64
	var fixedSrc [maxFastStack]int
	buf, src := fixed[:], fixedSrc[:]
	if p.MaxStack > maxFastStack {
		buf, src = make([][evalChunk]float64, p.MaxStack), make([]int, p.MaxStack)
	}
	for base := lo; base < hi; base += evalChunk {
		end := min(base+evalChunk, hi)
		n := end - base
		// at returns the chunk of the operand at stack position sp, sliced
		// to n in one place so that the loops below index it unchecked.
		at := func(sp int) []float64 {
			x := buf[sp][:]
			switch s := src[sp]; s {
			case fromBuf:
			case fromMM:
				x = mm[base:end]
			default:
				x = leaves[s][base:end]
			}
			return x[:n]
		}
		sp := 0
		for _, ins := range p.Code {
			switch ins.Op {
			case plan.TileLeaf:
				src[sp] = ins.Arg
				sp++
			case plan.TileMM:
				src[sp] = fromMM
				sp++
			case plan.TileAdd:
				a, b, out := at(sp-2), at(sp-1), buf[sp-2][:n]
				for i, av := range a {
					out[i] = av + b[i]
				}
				src[sp-2] = fromBuf
				sp--
			case plan.TileSub:
				a, b, out := at(sp-2), at(sp-1), buf[sp-2][:n]
				for i, av := range a {
					out[i] = av - b[i]
				}
				src[sp-2] = fromBuf
				sp--
			case plan.TileMul:
				a, b, out := at(sp-2), at(sp-1), buf[sp-2][:n]
				for i, av := range a {
					out[i] = av * b[i]
				}
				src[sp-2] = fromBuf
				sp--
			case plan.TileDiv:
				a, b, out := at(sp-2), at(sp-1), buf[sp-2][:n]
				for i, av := range a {
					out[i] = av / b[i]
				}
				src[sp-2] = fromBuf
				sp--
			case plan.TileScale:
				a, out, s := at(sp-1), buf[sp-1][:n], ins.Scale
				for i, av := range a {
					out[i] = s * av
				}
				src[sp-1] = fromBuf
			case plan.TileApply:
				a, out, fn := at(sp-1), buf[sp-1][:n], lang.FuncTable[ins.Arg]
				for i, av := range a {
					out[i] = fn(av)
				}
				src[sp-1] = fromBuf
			}
		}
		copy(dst[base:end], at(0))
	}
}

// readProgramLeaves reads the pipeline's leaf tiles in slot order (the
// tree-walker oracle's read order), validates each against the output tile
// shape, and charges the tape's per-element flops in tape order — exactly
// the trace the tree-walker would record. The returned slice (backed by
// the Ctx's reusable buffer) holds the leaf data; it is nil-length in
// virtual mode.
func (c *Ctx) readProgramLeaves(p *plan.TileProgram, leaves map[string]plan.LeafRef, ti, tj, rows, cols int) ([][]float64, error) {
	c.leafBuf = c.leafBuf[:0]
	for _, name := range p.Leaves {
		ref, ok := leaves[name]
		if !ok {
			return nil, fmt.Errorf("unbound leaf %s", name)
		}
		lr, lc := leafShape(ref, ti, tj)
		if lr != rows || lc != cols {
			return nil, fmt.Errorf("pipeline leaf %s (%s) tile (%d,%d) is %dx%d, want %dx%d",
				name, ref.Meta.Name, ti, tj, lr, lc, rows, cols)
		}
		t, err := c.readLeafTile(ref, ti, tj)
		if err != nil {
			return nil, err
		}
		if t != nil {
			c.leafBuf = append(c.leafBuf, t.Data)
		}
	}
	for _, ins := range p.Code {
		if k := ins.Op.KernelKind(); k != "" {
			c.addFlops(k, int64(rows)*int64(cols))
		}
	}
	return c.leafBuf, nil
}

// evalProgram evaluates a compiled pipeline at logical tile coordinates
// (ti, tj) with the given output shape. mm binds the TileMM placeholder
// (epilogues). The returned tile comes from the tile pool when
// owned is true — the caller must free it after encoding — and
// is a directly-readable input tile (single-leaf pipelines pass the
// decoded tile through) when owned is false. In virtual mode
// the tile is nil but all reads and flops are traced.
func (c *Ctx) evalProgram(p *plan.TileProgram, leaves map[string]plan.LeafRef, ti, tj, rows, cols int, mm *linalg.Tile) (t *linalg.Tile, owned bool, err error) {
	// Single-leaf pipelines pass the decoded tile through: no copy, and
	// the tile stays owned by the read cache.
	if len(p.Code) == 1 && p.Code[0].Op == plan.TileLeaf {
		ref, ok := leaves[p.Leaves[0]]
		if !ok {
			return nil, false, fmt.Errorf("unbound leaf %s", p.Leaves[0])
		}
		if lr, lc := leafShape(ref, ti, tj); lr != rows || lc != cols {
			return nil, false, fmt.Errorf("pipeline leaf %s (%s) tile (%d,%d) is %dx%d, want %dx%d",
				p.Leaves[0], ref.Meta.Name, ti, tj, lr, lc, rows, cols)
		}
		t, err := c.readLeafTile(ref, ti, tj)
		return t, false, err
	}
	ld, err := c.readProgramLeaves(p, leaves, ti, tj, rows, cols)
	if err != nil {
		return nil, false, err
	}
	if c.virtual() {
		return nil, false, nil
	}
	var mmData []float64
	if p.NeedsMM {
		if mm == nil {
			return nil, false, fmt.Errorf("pipeline needs %s but no product tile is bound", plan.MMVar)
		}
		mmData = mm.Data
	}
	dst := newTile(rows, cols, false)
	RunTileProgram(p, dst.Data, ld, mmData)
	return dst, true, nil
}

// applyProgramInPlace runs an epilogue pipeline over the finished
// accumulator acc (bound as the TileMM placeholder) in place, reading the
// pipeline's other leaves at output coordinates (ti, tj). Used by the
// aggregation phase and by products with no blocked write-back to hook.
func (c *Ctx) applyProgramInPlace(p *plan.TileProgram, leaves map[string]plan.LeafRef, ti, tj, rows, cols int, acc *linalg.Tile) error {
	ld, err := c.readProgramLeaves(p, leaves, ti, tj, rows, cols)
	if err != nil {
		return err
	}
	if c.virtual() || acc == nil {
		return nil
	}
	RunTileProgram(p, acc.Data, ld, acc.Data)
	return nil
}
