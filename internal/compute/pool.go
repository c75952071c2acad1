package compute

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"cumulon/internal/linalg"
)

// Tile buffers — a run's decoded inputs and their transposes, densified
// copies, accumulators, pipeline destinations — are recycled through one
// process-wide pool per power-of-two capacity class, and so is a virtual
// task's read set, so an engine run starts warm and a task allocates only
// what outlives it (its Result: the trace and the encoded outputs).
// Nothing bounds the pools but the garbage collector, which empties a
// sync.Pool that goes unused.
var (
	tilePools   [64]sync.Pool // class c: *linalg.Tile with 1<<c <= cap(Data) < 2<<c
	csrPool     sync.Pool     // *linalg.CSRTile, slices grown to the largest tile seen
	readSetPool sync.Pool     // *readSet, table grown to the largest task seen
)

// poolMode selects what happens to a released buffer. Only tests change it,
// through export_test.go.
type poolMode int32

const (
	poolReuse  poolMode = iota // recycle (production)
	poolPoison                 // fill with NaN, then recycle: a stale read cannot go unnoticed
	poolOff                    // bypass the pools: every request allocates fresh, the un-pooled oracle
)

var poolModeNow atomic.Int32

// pooled takes a buffer from p, or nothing when the pools are off.
func pooled(p *sync.Pool) any {
	if poolMode(poolModeNow.Load()) == poolOff {
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

// newCSR returns a CSR tile from the pool for a decoder to fill with up to
// n entries, in a power-of-two capacity: a run holds all its CSR tiles at
// once, and exact-size buffers would rarely fit the next tile handed one.
func newCSR(n int) *linalg.CSRTile {
	t, ok := pooled(&csrPool).(*linalg.CSRTile)
	if !ok {
		t = new(linalg.CSRTile)
	}
	if cap(t.Val) < n {
		c := 1 << bits.Len(uint(n-1))
		t.ColIdx, t.Val = make([]int, 0, c), make([]float64, 0, c)
	}
	return t
}

// freeCSR returns a tile obtained from newCSR to the pool.
func freeCSR(t *linalg.CSRTile) {
	if t != nil && recycle(t.Val[:cap(t.Val)]) {
		csrPool.Put(t)
	}
}

// newReadSet returns an empty read set from the pool, with room for n tiles.
func newReadSet(n int) *readSet {
	s, ok := pooled(&readSetPool).(*readSet)
	if !ok {
		s = new(readSet)
	}
	s.reset(n)
	return s
}

// freeReadSet returns a set obtained from newReadSet to the pool.
func freeReadSet(s *readSet) {
	switch poolMode(poolModeNow.Load()) {
	case poolOff:
		return
	case poolPoison:
		s.poison()
	}
	readSetPool.Put(s)
}

// recycle reports whether released buffers go back to their pool, after
// poisoning the values of this one when the mode asks for it.
func recycle(values []float64) bool {
	switch poolMode(poolModeNow.Load()) {
	case poolOff:
		return false
	case poolPoison:
		for i := range values {
			values[i] = math.NaN()
		}
	}
	return true
}
