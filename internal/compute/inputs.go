package compute

import (
	"fmt"
	"sync"

	"cumulon/internal/dfs"
	"cumulon/internal/linalg"
	"cumulon/internal/store"
)

// Inputs holds what one materialized engine run has decoded — each tile
// payload's dense or CSR form, and a dense tile's transpose once asked for —
// for all its tasks to share read-only: a payload is decoded, and its CSR
// structure checked, once per run, and every read still verifies its CRC32.
// An entry serves a read only if decoded from the very payload the Source
// returns, the same backing array and length. Payloads are immutable, so a
// rewritten, retried, restored or corrupted tile is a new payload, decoded
// afresh (a running task may hold the entry it supersedes), or those very
// bytes. Decoding happens outside the lock; of two tasks decoding one
// payload at once, the loser recycles its copy. Entries go back to the pools
// only through Drop, where no task runs. A virtual run's nil *Inputs holds
// nothing.
type Inputs struct {
	src   Source
	mu    sync.Mutex
	tiles map[dfs.TileAddr]*input
}

// input is one decoded payload: dense or csr, by the matrix's storage, and
// the dense form's transpose once built.
type input struct {
	raw          []byte
	dense, trans *linalg.Tile
	csr          *linalg.CSRTile
}

// inputHook is a test seam, like linalg's mathHook, set only from
// export_test.go: Inputs call it under their lock with each entry they keep
// (a transpose built later as one of its own) and each they recycle.
var inputHook func(e *input, kept bool)

// NewInputs returns an empty store over src.
func NewInputs(src Source) *Inputs {
	return &Inputs{src: src, tiles: map[dfs.TileAddr]*input{}}
}

// read returns the decoded tile (ti, tj) of meta.
func (in *Inputs) read(meta store.Meta, ti, tj int) (*input, error) {
	a := meta.Tile(ti, tj)
	raw, err := in.src.PeekTile(a)
	if err != nil {
		return nil, err
	}
	in.mu.Lock()
	e := in.tiles[a]
	in.mu.Unlock()
	if e.decodedFrom(raw) {
		if err := store.Verify(raw); err != nil {
			return nil, err
		}
		return e, nil
	}
	if e, err = decodeInput(meta, ti, tj, raw); err != nil {
		return nil, err
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if won := in.tiles[a]; won.decodedFrom(raw) {
		e.recycle()
		return won, nil
	}
	in.tiles[a] = e
	if inputHook != nil {
		inputHook(e, true)
	}
	return e, nil
}

// decodeInput decodes raw, tile (ti, tj) of meta, into pooled buffers. Only
// a tile of the declared shape may reach a kernel (theirs panic).
func decodeInput(meta store.Meta, ti, tj int, raw []byte) (*input, error) {
	rows, cols := meta.TileShape(ti, tj)
	e := &input{raw: raw}
	var err error
	var gotRows, gotCols int
	if meta.Sparse {
		e.csr = newCSR(len(raw) / 12) // an entry takes 12 of the payload's bytes
		err = store.DecodeSparseTileInto(e.csr, raw)
		gotRows, gotCols = e.csr.Rows, e.csr.Cols
	} else {
		e.dense = newTile(rows, cols, false)
		err = store.DecodeTileInto(e.dense, raw)
		gotRows, gotCols = e.dense.Rows, e.dense.Cols
	}
	if err == nil && (gotRows != rows || gotCols != cols) {
		err = fmt.Errorf("tile %s is stored %dx%d, want %dx%d", meta.TilePath(ti, tj), gotRows, gotCols, rows, cols)
	}
	if err != nil {
		e.recycle()
		return nil, err
	}
	return e, nil
}

// decodedFrom reports whether e was decoded from raw itself: the same
// backing array and length, not merely equal bytes.
func (e *input) decodedFrom(raw []byte) bool {
	return e != nil && len(raw) == len(e.raw) && &raw[0] == &e.raw[0]
}

// transposed returns the transpose of e's dense tile, built once per run.
func (in *Inputs) transposed(e *input) *linalg.Tile {
	in.mu.Lock()
	tt := e.trans
	in.mu.Unlock()
	if tt != nil {
		return tt
	}
	tt = newTile(e.dense.Cols, e.dense.Rows, false)
	linalg.TransposeInto(tt, e.dense)
	in.mu.Lock()
	defer in.mu.Unlock()
	if e.trans != nil {
		freeTile(tt)
		return e.trans
	}
	e.trans = tt
	if inputHook != nil {
		inputHook(&input{trans: tt}, true)
	}
	return tt
}

// Drop recycles the decoded tiles of matrix number matrix, or of every
// matrix for a negative number. The caller makes sure no task runs.
func (in *Inputs) Drop(matrix int32) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for a, e := range in.tiles {
		if matrix < 0 || a.Matrix == matrix {
			delete(in.tiles, a)
			if inputHook != nil {
				inputHook(e, false)
			}
			e.recycle()
		}
	}
}

// recycle returns e's decoded forms to the pools.
func (e *input) recycle() {
	freeTile(e.dense)
	freeTile(e.trans)
	freeCSR(e.csr)
}
