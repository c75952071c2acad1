package compute

import (
	"fmt"

	"cumulon/internal/lang"
	"cumulon/internal/linalg"
	"cumulon/internal/plan"
	"cumulon/internal/store"
)

// Ctx carries the per-task compute state: the environment, decoded-tile
// caches so repeated references read once (as a real task would), and the
// recorded trace. A Ctx lives for exactly one task execution and is
// confined to one goroutine.
type Ctx struct {
	env Env
	res Result
	// dense / sparse cache decoded input tiles by structured key — no
	// path formatting on the hit path, so repeat reads allocate nothing
	// (materialized mode). A tile read both densely and sparsely within
	// one task is traced once per access kind, matching how a real task
	// would fetch it twice into the two formats. transposed caches the
	// materialized transposes of dense entries, under the same keys; it
	// is made on first use (most tasks, and all virtual ones, need none).
	// All three hold pooled tiles, which release returns when the task
	// ends.
	dense, transposed map[tileKey]*linalg.Tile
	sparse            map[tileKey]*linalg.CSRTile
	// seen marks tiles already traced in virtual mode, where the two
	// access kinds share one marker (no payloads distinguish them) and no
	// decoded-tile cache exists. It is keyed like the caches, so a repeat
	// access formats no path.
	seen map[tileKey]bool
	// leafBuf is the reusable leaf-slot buffer of the compiled pipeline
	// executor (pipeline.go); it keeps steady-state evaluation at zero
	// allocations.
	leafBuf [][]float64
}

// tileKey identifies one tile of one matrix for the decoded-tile caches.
// Matrix names are unique within a plan (partials included), so the name
// plus stored tile coordinates is as unique as the DFS path.
type tileKey struct {
	name   string
	ti, tj int
}

func newCtx(t *Task) *Ctx {
	c := &Ctx{env: t.Env}
	c.res.Ops = make([]Op, 0, t.ops)
	if t.Env.Virtual {
		c.seen = make(map[tileKey]bool, t.ops)
	} else {
		c.dense = map[tileKey]*linalg.Tile{}
		c.sparse = map[tileKey]*linalg.CSRTile{}
	}
	return c
}

// release returns every cached input tile to the pool. Nothing may use the
// Ctx's tiles afterwards; its Result references none of them (outputs are
// encoded copies).
func (c *Ctx) release() {
	for _, t := range c.dense {
		freeTile(t)
	}
	for _, t := range c.transposed {
		freeTile(t)
	}
	for _, t := range c.sparse {
		freeCSR(t)
	}
	c.dense, c.transposed, c.sparse = nil, nil, nil
}

func (c *Ctx) virtual() bool { return c.env.Virtual }

// addFlops charges n flops to the task and, when Env.TileOps is on, to
// the named kernel's aggregate statistics (kept in first-use order so the
// engine's replay-time events are deterministic).
func (c *Ctx) addFlops(kind string, n int64) {
	c.res.Flops += n
	if !c.env.TileOps {
		return
	}
	for i := range c.res.Kernels {
		if c.res.Kernels[i].Kind == kind {
			c.res.Kernels[i].Count++
			c.res.Kernels[i].Flops += n
			return
		}
	}
	c.res.Kernels = append(c.res.Kernels, KernelStat{Kind: kind, Count: 1, Flops: n})
}

// trace appends a read op unless the path was already traced this task.
func (c *Ctx) traceRead(path string, sparse bool) {
	c.res.Ops = append(c.res.Ops, Op{Path: path, Sparse: sparse})
}

// readVirtual records a read in virtual mode, once per tile per task.
func (c *Ctx) readVirtual(meta store.Meta, ti, tj int) {
	key := tileKey{meta.Name, ti, tj}
	if c.seen[key] {
		return
	}
	c.seen[key] = true
	c.traceRead(meta.TilePath(ti, tj), false)
}

// readDenseTile reads and decodes the dense tile at (ti, tj) of meta,
// densifying sparse storage. Returns nil in virtual mode (the read is
// still traced for the engine's accounting). Cache hits are found by
// structured key, without formatting the tile path — repeat reads of a
// decoded tile must not allocate (the compiled pipelines' steady state
// is zero allocations per evaluation).
func (c *Ctx) readDenseTile(meta store.Meta, ti, tj int) (*linalg.Tile, error) {
	if c.virtual() {
		c.readVirtual(meta, ti, tj)
		return nil, nil
	}
	key := tileKey{meta.Name, ti, tj}
	if t, ok := c.dense[key]; ok {
		return t, nil
	}
	path := meta.TilePath(ti, tj)
	raw, err := c.env.Src.Peek(path)
	if err != nil {
		return nil, err
	}
	c.traceRead(path, false)
	rows, cols := meta.TileShape(ti, tj)
	var tile *linalg.Tile
	if meta.Sparse {
		sp := newCSR()
		defer freeCSR(sp)
		if err := store.DecodeSparseTileInto(sp, raw); err != nil {
			return nil, err
		}
		// The payload sizes the CSR form, not the dense one: only a tile
		// of the declared shape may be expanded.
		if sp.Rows != rows || sp.Cols != cols {
			return nil, fmt.Errorf("tile %s is stored %dx%d, want %dx%d", path, sp.Rows, sp.Cols, rows, cols)
		}
		tile = newTile(rows, cols, true)
		sp.ScatterInto(tile.Data, cols)
	} else {
		tile = newTile(rows, cols, false)
		if err := store.DecodeTileInto(tile, raw); err != nil {
			freeTile(tile)
			return nil, err
		}
	}
	c.dense[key] = tile
	return tile, nil
}

// readSparseTile reads a CSR tile (sparse fast path).
func (c *Ctx) readSparseTile(meta store.Meta, ti, tj int) (*linalg.CSRTile, error) {
	if c.virtual() {
		c.readVirtual(meta, ti, tj)
		return nil, nil
	}
	key := tileKey{meta.Name, ti, tj}
	if t, ok := c.sparse[key]; ok {
		return t, nil
	}
	path := meta.TilePath(ti, tj)
	raw, err := c.env.Src.Peek(path)
	if err != nil {
		return nil, err
	}
	c.traceRead(path, true)
	sp := newCSR()
	if err := store.DecodeSparseTileInto(sp, raw); err != nil {
		freeCSR(sp)
		return nil, err
	}
	c.sparse[key] = sp
	return sp, nil
}

// readLeafTile reads the tile at *logical* coordinates (ti, tj) of a leaf,
// transposing on the fly for transposed access paths.
func (c *Ctx) readLeafTile(ref plan.LeafRef, ti, tj int) (*linalg.Tile, error) {
	ri, rj := ti, tj
	if ref.Transposed {
		ri, rj = tj, ti
	}
	t, err := c.readDenseTile(ref.Meta, ri, rj)
	if err != nil || t == nil || !ref.Transposed {
		return t, err
	}
	return c.transposedTile(tileKey{ref.Meta.Name, ri, rj}, t), nil
}

// transposedTile returns the materialized transpose of the cached input
// tile t, built once per task.
func (c *Ctx) transposedTile(key tileKey, t *linalg.Tile) *linalg.Tile {
	tt, ok := c.transposed[key]
	if !ok {
		tt = newTile(t.Cols, t.Rows, false)
		linalg.TransposeInto(tt, t)
		if c.transposed == nil {
			c.transposed = map[tileKey]*linalg.Tile{}
		}
		c.transposed[key] = tt
	}
	return tt
}

// leafShape returns the logical shape of leaf tile (ti, tj).
func leafShape(ref plan.LeafRef, ti, tj int) (rows, cols int) {
	if ref.Transposed {
		r, c := ref.Meta.TileShape(tj, ti)
		return c, r
	}
	return ref.Meta.TileShape(ti, tj)
}

// mulTile computes the (ti, tj) output tile contribution of a Mul job over
// the inner-dimension tile span ks, evaluating the prologue tapes per tile
// and using the sparse kernel when the left operand is a bare sparse leaf.
// Bare dense leaves read through a transposed access path skip the
// explicit per-k Transpose materialization: the raw tile feeds GemmTA /
// GemmTB, whose packing absorbs the layout (same reads traced, same flops
// charged, one less tile copy per k step). The returned accumulator comes
// from the tile pool; the caller must free it after encoding.
//
// epi, when non-nil, is the compiled epilogue tape to fuse into the final
// k step's blocked GEMM write-back: each finished output panel is
// transformed while cache-resident instead of in a second pass over the
// tile. Callers pass it only when the span covers the whole inner
// dimension (k-split partials must stay raw products; the aggregation
// phase applies the epilogue). Epilogue leaf reads and flop charges land
// after the last prologue read and gemm charge — the trace point of a
// separate post-pass, which is how the test-side tree-walker applies it.
func (c *Ctx) mulTile(j *plan.Job, ti, tj int, ks Span, epi *plan.TileProgram) (*linalg.Tile, error) {
	outRows, outCols := j.Out.TileShape(ti, tj)
	var acc *linalg.Tile
	if !c.virtual() {
		acc = newTile(outRows, outCols, true)
	}
	lRef, lBare := bareSparseLeaf(j.LExpr, j.Leaves)
	lTRef, lTrans := bareTransposedDenseLeaf(j.LExpr, j.Leaves)
	rTRef, rTrans := bareTransposedDenseLeaf(j.RExpr, j.Leaves)
	epiFused := false
	for k := ks.Lo; k < ks.Hi; k++ {
		kk := KExtent(j.KSize, j.Out.TileSize, k)
		var rt *linalg.Tile
		var rtOwned bool
		var err error
		if rTrans && !lBare {
			// Logical tile (k, tj) of the transposed leaf is raw (tj, k).
			rt, err = c.readDenseTile(rTRef.Meta, tj, k)
		} else {
			rt, rtOwned, err = c.evalProgram(j.RProg, j.Leaves, k, tj, kk, outCols, nil)
		}
		if err != nil {
			return nil, err
		}
		if lBare {
			if err := c.mulSparseLeft(acc, lRef, ti, k, rt, kk, outCols); err != nil {
				return nil, err
			}
			if rtOwned {
				freeTile(rt)
			}
			continue
		}
		var lt *linalg.Tile
		var ltOwned bool
		if lTrans {
			lt, err = c.readDenseTile(lTRef.Meta, k, ti)
		} else {
			lt, ltOwned, err = c.evalProgram(j.LProg, j.Leaves, ti, k, outRows, kk, nil)
		}
		if err != nil {
			return nil, err
		}
		c.addFlops("gemm", linalg.GemmFlops(outRows, kk, outCols))
		// Bind the fused epilogue on the final k step, once the product
		// is about to be complete.
		var hook linalg.EpilogueFn
		if epi != nil && k == ks.Hi-1 {
			el, err := c.readProgramLeaves(epi, j.Leaves, ti, tj, outRows, outCols)
			if err != nil {
				return nil, err
			}
			epiFused = true
			if acc != nil {
				a := acc
				hook = func(i0, j0, rows, cols int) {
					runTileProgramRegion(epi, a.Data, el, a.Data, a.Cols, i0, j0, rows, cols)
				}
			}
		}
		if acc == nil {
			if ltOwned {
				freeTile(lt)
			}
			if rtOwned {
				freeTile(rt)
			}
			continue
		}
		switch {
		case lTrans && rTrans:
			// Aᵀ·Bᵀ has no fused kernel; transpose the (usually smaller)
			// left tile once and use the Bᵀ path for the right.
			linalg.GemmHooked(acc, c.transposedTile(tileKey{lTRef.Meta.Name, k, ti}, lt), rt, false, true, hook)
		case lTrans:
			linalg.GemmHooked(acc, lt, rt, true, false, hook)
		case rTrans:
			linalg.GemmHooked(acc, lt, rt, false, true, hook)
		default:
			linalg.GemmHooked(acc, lt, rt, false, false, hook)
		}
		if ltOwned {
			freeTile(lt)
		}
		if rtOwned {
			freeTile(rt)
		}
	}
	if epi != nil && !epiFused {
		// Sparse-left products have no blocked write-back to hook into;
		// apply the epilogue in place over the finished accumulator.
		if err := c.applyProgramInPlace(epi, j.Leaves, ti, tj, outRows, outCols, acc); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// mulTileMasked computes the (ti, tj) sparse output tile of a masked
// multiply: the product of the prologue tiles restricted to the pattern's
// stored positions, at cost 2*nnz(pattern tile)*K.
func (c *Ctx) mulTileMasked(j *plan.Job, maskRef plan.LeafRef, ti, tj int, ks Span) (*linalg.CSRTile, error) {
	pat, err := c.readLeafSparseTile(maskRef, ti, tj)
	if err != nil {
		return nil, err
	}
	outRows, outCols := j.Out.TileShape(ti, tj)
	var acc *linalg.CSRTile
	for k := ks.Lo; k < ks.Hi; k++ {
		kk := KExtent(j.KSize, j.Out.TileSize, k)
		lt, ltOwned, err := c.evalProgram(j.LProg, j.Leaves, ti, k, outRows, kk, nil)
		if err != nil {
			return nil, err
		}
		rt, rtOwned, err := c.evalProgram(j.RProg, j.Leaves, k, tj, kk, outCols, nil)
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
		if ltOwned {
			freeTile(lt)
		}
		if rtOwned {
			freeTile(rt)
		}
		if acc == nil {
			acc = part
		} else {
			acc = linalg.SpZip(acc, part, func(a, b float64) float64 { return a + b })
		}
	}
	return acc, nil
}

// readLeafSparseTile reads a sparse leaf tile at logical coordinates,
// transposing in CSR form for transposed access paths. Returns nil in
// virtual mode (the read is still traced).
func (c *Ctx) readLeafSparseTile(ref plan.LeafRef, ti, tj int) (*linalg.CSRTile, error) {
	ri, rj := ti, tj
	if ref.Transposed {
		ri, rj = tj, ti
	}
	sp, err := c.readSparseTile(ref.Meta, ri, rj)
	if err != nil || sp == nil {
		return nil, err
	}
	if ref.Transposed {
		return sp.Transpose(), nil
	}
	return sp, nil
}

// mulSparseLeft accumulates the contribution of a bare sparse left leaf at
// logical coordinates (ti, k) times the dense right tile rt.
func (c *Ctx) mulSparseLeft(acc *linalg.Tile, ref plan.LeafRef, ti, k int, rt *linalg.Tile, kk, outCols int) error {
	ri, rj := ti, k
	if ref.Transposed {
		ri, rj = k, ti
	}
	sp, err := c.readSparseTile(ref.Meta, ri, rj)
	if err != nil {
		return err
	}
	if c.virtual() {
		rows, _ := leafShape(ref, ti, k)
		estNNZ := ref.Meta.EffDensity() * float64(rows) * float64(kk)
		c.addFlops("spgemm", int64(2*estNNZ*float64(outCols)))
		return nil
	}
	c.addFlops("spgemm", 2*int64(sp.NNZ())*int64(outCols))
	if ref.Transposed {
		linalg.SpGemmDenseTA(acc, sp, rt)
	} else {
		linalg.SpGemmDense(acc, sp, rt)
	}
	return nil
}

// bareTransposedDenseLeaf reports whether expr is a single dense leaf
// read through a transposed access path — the shape GemmTA/GemmTB can
// consume raw, without materializing the transpose.
func bareTransposedDenseLeaf(e lang.Expr, leaves map[string]plan.LeafRef) (plan.LeafRef, bool) {
	v, ok := e.(lang.Var)
	if !ok {
		return plan.LeafRef{}, false
	}
	ref, ok := leaves[v.Name]
	if !ok || ref.Meta.Sparse || !ref.Transposed {
		return plan.LeafRef{}, false
	}
	return ref, true
}

// bareSparseLeaf reports whether expr is a single sparse leaf reference.
func bareSparseLeaf(e lang.Expr, leaves map[string]plan.LeafRef) (plan.LeafRef, bool) {
	v, ok := e.(lang.Var)
	if !ok {
		return plan.LeafRef{}, false
	}
	ref, ok := leaves[v.Name]
	if !ok || !ref.Meta.Sparse {
		return plan.LeafRef{}, false
	}
	return ref, true
}

// sumTiles reads and sums the (ti, tj) tiles of the given partial
// matrices (aggregation phase of a k-split product). The returned
// accumulator comes from the tile pool; the caller must free it after
// encoding.
func (c *Ctx) sumTiles(partials []store.Meta, ti, tj int) (*linalg.Tile, error) {
	var acc *linalg.Tile
	for i, pm := range partials {
		t, err := c.readDenseTile(pm, ti, tj)
		if err != nil {
			return nil, err
		}
		rows, cols := pm.TileShape(ti, tj)
		if i > 0 {
			c.addFlops("add", int64(rows)*int64(cols))
		}
		if c.virtual() {
			continue
		}
		if acc == nil {
			acc = newTile(rows, cols, false)
			copy(acc.Data, t.Data)
		} else {
			linalg.AddInto(acc, t)
		}
	}
	return acc, nil
}

// writeTile records an output tile in the trace (encoded payload, or
// estimated size in virtual mode). The engine performs the actual DFS
// write, with placement, during replay.
func (c *Ctx) writeTile(meta store.Meta, ti, tj int, tile *linalg.Tile) error {
	path := meta.TilePath(ti, tj)
	if c.virtual() {
		c.res.Ops = append(c.res.Ops, Op{Write: true, Path: path, Size: meta.EstTileBytes(ti, tj)})
		return nil
	}
	c.res.Ops = append(c.res.Ops, Op{Write: true, Path: path, Data: store.EncodeTile(tile)})
	return nil
}

// writeSparseTile records a sparse output tile in the trace.
func (c *Ctx) writeSparseTile(meta store.Meta, ti, tj int, sp *linalg.CSRTile) error {
	path := meta.TilePath(ti, tj)
	if c.virtual() {
		c.res.Ops = append(c.res.Ops, Op{Write: true, Sparse: true, Path: path, Size: meta.EstTileBytes(ti, tj)})
		return nil
	}
	c.res.Ops = append(c.res.Ops, Op{Write: true, Sparse: true, Path: path, Data: store.EncodeSparseTile(sp)})
	return nil
}
