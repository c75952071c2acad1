package compute

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"cumulon/internal/linalg"
)

// Tile buffers — decoded inputs, densified and transposed copies,
// accumulators, pipeline destinations — are recycled through one
// process-wide pool per power-of-two capacity class, so an engine run
// starts warm and a task allocates only what outlives it (the encoded
// outputs in its Result). Nothing bounds the pools but the garbage
// collector, which empties a sync.Pool that goes unused.
var (
	tilePools [64]sync.Pool // class c: *linalg.Tile with 1<<c <= cap(Data) < 2<<c
	csrPool   sync.Pool     // *linalg.CSRTile, slices grown to the largest tile seen
)

// PoolMode selects what happens to a released buffer. Only tests change it.
type PoolMode int32

const (
	PoolReuse  PoolMode = iota // recycle (production)
	PoolPoison                 // fill with NaN, then recycle: a stale read cannot go unnoticed
	PoolOff                    // bypass the pools: every request allocates fresh, the un-pooled oracle
)

var poolMode atomic.Int32

// SetPoolMode installs m and returns the mode it replaced.
func SetPoolMode(m PoolMode) PoolMode { return PoolMode(poolMode.Swap(int32(m))) }

// pooled takes a buffer from p, or nothing when the pools are off.
func pooled(p *sync.Pool) any {
	if PoolMode(poolMode.Load()) == PoolOff {
		return nil
	}
	return p.Get()
}

// newTile returns a rows x cols tile from the pool. Its contents are
// unspecified unless zero is set: callers that overwrite every element
// skip the clearing pass.
func newTile(rows, cols int, zero bool) *linalg.Tile {
	n := rows * cols
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("compute: invalid tile shape %dx%d", rows, cols))
	}
	class := bits.Len(uint(n - 1))
	if t, ok := pooled(&tilePools[class]).(*linalg.Tile); ok {
		t.Rows, t.Cols, t.Data = rows, cols, t.Data[:n]
		if zero {
			clear(t.Data)
		}
		return t
	}
	return &linalg.Tile{Rows: rows, Cols: cols, Data: make([]float64, n, 1<<class)}
}

// freeTile returns a tile obtained from newTile to the pool, once nothing
// references its data. It is filed by floor(log2(cap)): a decode may have
// replaced the buffer.
func freeTile(t *linalg.Tile) {
	if t != nil && recycle(t.Data[:cap(t.Data)]) {
		tilePools[bits.Len(uint(cap(t.Data)))-1].Put(t)
	}
}

// newCSR returns a CSR tile from the pool for a decoder to fill.
func newCSR() *linalg.CSRTile {
	if t, ok := pooled(&csrPool).(*linalg.CSRTile); ok {
		return t
	}
	return new(linalg.CSRTile)
}

// freeCSR returns a tile obtained from newCSR to the pool.
func freeCSR(t *linalg.CSRTile) {
	if recycle(t.Val[:cap(t.Val)]) {
		csrPool.Put(t)
	}
}

// recycle reports whether released buffers go back to their pool, after
// poisoning the values of this one when the mode asks for it.
func recycle(values []float64) bool {
	switch PoolMode(poolMode.Load()) {
	case PoolOff:
		return false
	case PoolPoison:
		for i := range values {
			values[i] = math.NaN()
		}
	}
	return true
}
