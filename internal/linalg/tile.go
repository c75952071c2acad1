// Package linalg provides the dense and sparse tile kernels that underlie
// Cumulon's tiled matrix representation, plus small dense reference matrices
// used as correctness oracles throughout the test suite.
//
// A tile is a fixed-capacity, row-major block of float64 values. Matrices
// are stored as grids of tiles (see package store); all physical operators
// in the execution engine ultimately reduce to the tile kernels defined
// here: GEMM, element-wise maps and zips, transpose, and reductions.
package linalg

import (
	"fmt"
	"math"
)

// Tile is a dense, row-major block of float64 values with Rows x Cols
// elements. Tiles at the right and bottom fringe of a matrix may be smaller
// than the matrix's nominal tile size; kernels therefore always consult the
// tile's own dimensions rather than any global constant.
type Tile struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewTile returns a zero-filled tile of the given shape.
func NewTile(rows, cols int) *Tile {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid tile shape %dx%d", rows, cols))
	}
	return &Tile{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Close reports whether a and b are equal within absolute-or-relative
// tolerance tol. NaNs compare equal to NaNs so that oracle comparisons of
// programs with undefined regions remain meaningful.
func Close(a, b, tol float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}

// String renders a compact description, used in error messages and traces.
func (t *Tile) String() string {
	return fmt.Sprintf("Tile(%dx%d)", t.Rows, t.Cols)
}
