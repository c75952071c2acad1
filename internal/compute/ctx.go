package compute

import (
	"cumulon/internal/dfs"
	"cumulon/internal/lang"
	"cumulon/internal/linalg"
	"cumulon/internal/plan"
	"cumulon/internal/store"
)

// Ctx carries the per-task compute state: the environment, the input tiles
// the task has read so repeated references read once (as a real task
// would), and the recorded trace. A Ctx lives for exactly one task execution
// and is confined to one goroutine.
type Ctx struct {
	env Env
	res Result
	// dense / sparse hold the input tiles the task has read, by address
	// (materialized mode), so a tile is traced once per format per task, as
	// a real task fetches it once into each form, and repeat references take
	// no lock and allocate nothing. sparse holds the CSR form of every
	// sparse-stored tile read, keyed by the format the task fetched it in: a
	// dense-format entry serves a sparse right operand (mulTile) and
	// readDenseTile, which expands it into dense, so the two share one read
	// op whichever comes first. Decoded tiles and transposes are borrowed
	// read-only from the run's Inputs; release returns what the task owns.
	dense  map[dfs.TileAddr]taskTile
	sparse map[csrKey]*linalg.CSRTile
	// seen marks tiles already traced in virtual mode, where the two
	// access kinds share one marker (no payloads distinguish them) and no
	// tile is held. Like the maps it is keyed by matrix and tile
	// coordinates; it is pooled, and release returns it.
	seen *readSet
	// leafBuf is the reusable leaf-slot buffer of the compiled pipeline
	// executor (pipeline.go); it keeps steady-state evaluation at zero
	// allocations.
	leafBuf [][]float64
}

// csrKey identifies a CSR tile the task read: the tile and the format the
// task fetched it in.
type csrKey struct {
	dfs.TileAddr
	asDense bool
}

// taskTile is a dense input tile as a task holds it, with its transpose once
// built: borrowed from the run's Inputs entry in, or, with in nil, owned —
// the densified form of a sparse-stored tile.
type taskTile struct {
	t, tt *linalg.Tile
	in    *input
}

// newCtx starts a task's Ctx, its trace and read set sized for ops entries
// (0 grows them on demand).
func newCtx(env Env, ops int) *Ctx {
	c := &Ctx{env: env}
	c.res.Ops = make([]Op, 0, ops)
	if env.Virtual {
		c.seen = newReadSet(ops)
	} else {
		c.dense = map[dfs.TileAddr]taskTile{}
		c.sparse = map[csrKey]*linalg.CSRTile{}
	}
	return c
}

// release returns the tiles the task owns and the read set to the pool.
// Nothing may use the Ctx's tiles afterwards; its Result references none of
// them (outputs are encoded copies).
func (c *Ctx) release() {
	if c.seen != nil {
		freeReadSet(c.seen)
		c.seen = nil
	}
	for _, t := range c.dense {
		if t.in == nil {
			freeTile(t.t)
			freeTile(t.tt)
		}
	}
	c.dense, c.sparse = nil, nil
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

// traceRead appends a read op; callers dedup per task.
func (c *Ctx) traceRead(addr dfs.TileAddr, sparse bool) {
	c.res.Ops = append(c.res.Ops, Op{Tile: addr, Sparse: sparse})
}

// readVirtual records a read in virtual mode, once per tile per task.
func (c *Ctx) readVirtual(meta store.Meta, ti, tj int) {
	if a := meta.Tile(ti, tj); c.seen.add(a) {
		c.traceRead(a, false)
	}
}

// readDenseTile reads the dense tile at (ti, tj) of meta, densifying
// sparse storage. Returns nil in virtual mode (the read is still traced for
// the engine's accounting). Repeat references are found by structured key
// and must not allocate (the compiled pipelines' steady state is zero
// allocations per evaluation).
func (c *Ctx) readDenseTile(meta store.Meta, ti, tj int) (*linalg.Tile, error) {
	if c.virtual() {
		c.readVirtual(meta, ti, tj)
		return nil, nil
	}
	key := meta.Tile(ti, tj)
	if t, ok := c.dense[key]; ok {
		return t.t, nil
	}
	var t taskTile
	if meta.Sparse {
		sp, err := c.readSparseTile(meta, ti, tj, true)
		if err != nil {
			return nil, err
		}
		t.t = newTile(sp.Rows, sp.Cols, true)
		sp.ScatterInto(t.t.Data, sp.Cols)
	} else {
		in, err := c.env.Src.read(meta, ti, tj)
		if err != nil {
			return nil, err
		}
		c.traceRead(key, false)
		t = taskTile{t: in.dense, in: in}
	}
	c.dense[key] = t
	return t.t, nil
}

// readSparseTile reads the CSR form of the sparse-stored tile at (ti, tj)
// of meta, traced as a fetch in the sparse format or, with asDense, in the
// dense one (see Ctx). Returns nil in virtual mode.
func (c *Ctx) readSparseTile(meta store.Meta, ti, tj int, asDense bool) (*linalg.CSRTile, error) {
	if c.virtual() {
		c.readVirtual(meta, ti, tj)
		return nil, nil
	}
	key := csrKey{meta.Tile(ti, tj), asDense}
	if t, ok := c.sparse[key]; ok {
		return t, nil
	}
	in, err := c.env.Src.read(meta, ti, tj)
	if err != nil {
		return nil, err
	}
	c.traceRead(key.TileAddr, !asDense)
	c.sparse[key] = in.csr
	return in.csr, nil
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
	return c.transposedTile(ref.Meta.Tile(ri, rj)), nil
}

// transposedTile returns the materialized transpose of the dense input tile
// at key, which the task has read: the run's, built once per run, or the
// task's own for a tile the task densified.
func (c *Ctx) transposedTile(key dfs.TileAddr) *linalg.Tile {
	t := c.dense[key]
	if t.tt == nil {
		if t.in != nil {
			t.tt = c.env.Src.transposed(t.in)
		} else {
			t.tt = newTile(t.t.Cols, t.t.Rows, false)
			linalg.TransposeInto(t.tt, t.t)
		}
		c.dense[key] = t
	}
	return t.tt
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
// the inner-dimension tile span ks, evaluating the prologue tapes per tile.
// Bare dense leaves read through a transposed access path skip the
// explicit per-k Transpose materialization: the raw tile feeds GemmTA /
// GemmTB, whose packing absorbs the layout (same reads traced, same flops
// charged, one less tile copy per k step). The returned accumulator comes
// from the tile pool; the caller must free it after encoding.
//
// A bare sparse leaf on either side is multiplied from its CSR form, never
// densified (the left one when both sides are): on the left acc += op(S)·R,
// on the right the same two kernels accumulate the transposed output tile,
// accᵀ += op(S)ᵀ·Lᵀ, where Lᵀ is the raw tile of a bare transposed dense
// left leaf (GNMF's W' * V: no copy at all) and one TransposeInto of the
// evaluated left tile otherwise; accᵀ is carried across the whole span and
// transposed into the output once. Every output element is still the dense
// kernels' ascending-k chain less its exact-zero terms, so the tile is bit
// for bit the one a densified product gives (linalg.SpGemmDense states the
// contract) and which path ran shows only in wall-clock time. The modelled
// task does not change either: a sparse right operand is still fetched in
// the dense format (Op.Sparse is the node-cache format the model prices,
// not the layout computed on) and charged the full "gemm" flops. Pricing
// sparse-right products by nnz — here, in plan.Profile and in mapred — is
// a paper-fidelity change that moves goldens and search results; it is
// deliberately not made here.
//
// epi, when non-nil, is the compiled epilogue tape to fuse into the final
// k step's blocked GEMM write-back: each finished output panel is
// transformed while cache-resident instead of in a second pass over the
// tile. It is the phase's (plan.Phase.Epilogue): nil for a k-split partial,
// which must stay a raw product. Epilogue leaf reads and flop charges land
// after the last prologue read and gemm charge — the trace point of a
// separate post-pass, which is how the test-side tree-walker applies it.
func (c *Ctx) mulTile(j *plan.Job, ti, tj int, ks Span, epi *plan.TileProgram) (*linalg.Tile, error) {
	outRows, outCols := j.Out.TileShape(ti, tj)
	lRef, lBare := bareSparseLeaf(j.LExpr, j.Leaves)
	rRef, rBare := bareSparseLeaf(j.RExpr, j.Leaves)
	rBare = rBare && !lBare
	lTRef, lTrans := bareTransposedDenseLeaf(j.LExpr, j.Leaves)
	rTRef, rTrans := bareTransposedDenseLeaf(j.RExpr, j.Leaves)
	var acc, accT *linalg.Tile
	switch {
	case c.virtual():
	case rBare:
		accT = newTile(outCols, outRows, true)
	default:
		acc = newTile(outRows, outCols, true)
	}
	epiFused := false
	for k := ks.Lo; k < ks.Hi; k++ {
		kk := KExtent(j.KSize, j.Out.TileSize, k)
		var rt *linalg.Tile
		var rs *linalg.CSRTile
		var rtOwned bool
		var err error
		switch {
		case rBare:
			rs, err = c.readSparseLeaf(rRef, k, tj, true)
		case rTrans && !lBare:
			// Logical tile (k, tj) of the transposed leaf is raw (tj, k).
			rt, err = c.readDenseTile(rTRef.Meta, tj, k)
		default:
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
		if rBare {
			if accT != nil {
				ltT := lt
				if !lTrans {
					ltT = newTile(kk, outRows, false)
					linalg.TransposeInto(ltT, lt)
				}
				// Transposing the product swaps the access path's sense.
				spGemm(accT, rs, !rRef.Transposed, ltT)
				if ltT != lt {
					freeTile(ltT)
				}
			}
			if ltOwned {
				freeTile(lt)
			}
			continue
		}
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
			linalg.GemmHooked(acc, c.transposedTile(lTRef.Meta.Tile(k, ti)), rt, false, true, hook)
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
	if accT != nil {
		acc = newTile(outRows, outCols, false)
		linalg.TransposeInto(acc, accT)
		freeTile(accT)
	}
	if epi != nil && !epiFused {
		// CSR products have no blocked write-back to hook into; apply the
		// epilogue in place over the finished accumulator.
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
	sp, err := c.readSparseLeaf(ref, ti, tj, false)
	if err != nil || sp == nil {
		return nil, err
	}
	if ref.Transposed {
		return sp.Transpose(), nil
	}
	return sp, nil
}

// readSparseLeaf reads the raw CSR tile behind *logical* tile (ti, tj) of
// a sparse leaf; spGemm applies the access path.
func (c *Ctx) readSparseLeaf(ref plan.LeafRef, ti, tj int, asDense bool) (*linalg.CSRTile, error) {
	if ref.Transposed {
		ti, tj = tj, ti
	}
	return c.readSparseTile(ref.Meta, ti, tj, asDense)
}

// spGemm accumulates acc += S·d, or Sᵀ·d when ta is set, for the raw CSR
// tile S of a sparse operand on either side of a product.
func spGemm(acc *linalg.Tile, sp *linalg.CSRTile, ta bool, d *linalg.Tile) {
	if ta {
		linalg.SpGemmDenseTA(acc, sp, d)
	} else {
		linalg.SpGemmDense(acc, sp, d)
	}
}

// mulSparseLeft accumulates the contribution of a bare sparse left leaf at
// logical coordinates (ti, k) times the dense right tile rt.
func (c *Ctx) mulSparseLeft(acc *linalg.Tile, ref plan.LeafRef, ti, k int, rt *linalg.Tile, kk, outCols int) error {
	sp, err := c.readSparseLeaf(ref, ti, k, false)
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
	spGemm(acc, sp, ref.Transposed, rt)
	return nil
}

// bareTransposedDenseLeaf reports whether expr is a single dense leaf
// read through a transposed access path — the shape GemmTA/GemmTB can
// consume raw, without materializing the transpose.
func bareTransposedDenseLeaf(e lang.Expr, leaves map[string]plan.LeafRef) (plan.LeafRef, bool) {
	ref, ok := plan.BareLeaf(e, leaves)
	return ref, ok && !ref.Meta.Sparse && ref.Transposed
}

// bareSparseLeaf reports whether expr is a single sparse leaf reference.
func bareSparseLeaf(e lang.Expr, leaves map[string]plan.LeafRef) (plan.LeafRef, bool) {
	ref, ok := plan.BareLeaf(e, leaves)
	return ref, ok && ref.Meta.Sparse
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
	if c.virtual() {
		c.res.Ops = append(c.res.Ops, Op{Write: true, Tile: meta.Tile(ti, tj), Size: meta.EstTileBytes(ti, tj)})
		return nil
	}
	c.res.Ops = append(c.res.Ops, Op{Write: true, Tile: meta.Tile(ti, tj), Data: store.EncodeTile(tile)})
	return nil
}

// writeSparseTile records a sparse output tile in the trace.
func (c *Ctx) writeSparseTile(meta store.Meta, ti, tj int, sp *linalg.CSRTile) error {
	if c.virtual() {
		c.res.Ops = append(c.res.Ops, Op{Write: true, Sparse: true, Tile: meta.Tile(ti, tj), Size: meta.EstTileBytes(ti, tj)})
		return nil
	}
	c.res.Ops = append(c.res.Ops, Op{Write: true, Sparse: true, Tile: meta.Tile(ti, tj), Data: store.EncodeSparseTile(sp)})
	return nil
}
