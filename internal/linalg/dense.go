package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// Dense is a simple row-major dense matrix. It serves two roles: the
// correctness oracle against which the distributed engines are tested, and
// the in-memory staging format for loading/saving whole matrices in
// examples and tests. It is deliberately unoptimized and single-threaded.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// NewDense returns a zero-filled rows x cols dense matrix.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid dense shape %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// RandomDense returns a rows x cols matrix with entries drawn uniformly
// from [0, 1) using the given seed. All randomness in this codebase is
// seeded explicitly so that every test and experiment is reproducible.
func RandomDense(rows, cols int, seed int64) *Dense { return Drawn(rows, cols, DenseRows(seed, 0)) }

// RandomSparseDense returns a rows x cols matrix where each entry is
// nonzero with probability density, drawn uniformly from [0,1). It models
// sparse inputs (e.g. ratings matrices) while keeping a dense layout for
// oracle simplicity.
func RandomSparseDense(rows, cols int, density float64, seed int64) *Dense {
	return Drawn(rows, cols, SparseRows(seed, density))
}

// Drawn returns the rows x cols matrix g draws, and ends the draw.
func Drawn(rows, cols int, g RandomRows) *Dense {
	d := NewDense(rows, cols)
	g.Fill(d.Data)
	g.Close()
	return d
}

// RandomRows is a random matrix drawn row by row: the one definition of
// every random matrix this codebase makes, whether whole (RandomDense,
// RandomSparseDense) or a tile row at a time straight into the tile store.
// Its entries, in row-major order, come from one stream seeded with the
// matrix's seed: a dense entry is a Float64 plus the draw's shift; a sparse
// one is nonzero when a first Float64 falls below the density, and is then
// a second Float64.
type RandomRows struct {
	rng            *rand.Rand
	sparse         bool
	density, shift float64
}

// DenseRows starts the draw of a dense random matrix at seed, every entry
// uniform in [shift, shift+1).
func DenseRows(seed int64, shift float64) RandomRows {
	return RandomRows{rng: Stream(seed), shift: shift}
}

// SparseRows starts the draw of a sparse random matrix at seed, each entry
// nonzero with probability density and then uniform in [0, 1).
func SparseRows(seed int64, density float64) RandomRows {
	return RandomRows{rng: Stream(seed), sparse: true, density: density}
}

// Fill draws the matrix's next len(dst) entries into dst.
func (g RandomRows) Fill(dst []float64) {
	if !g.sparse {
		for i := range dst {
			dst[i] = g.rng.Float64() + g.shift
		}
		return
	}
	for i := range dst {
		v := 0.0
		if g.rng.Float64() < g.density {
			v = g.rng.Float64()
		}
		dst[i] = v
	}
}

// Close ends the draw, handing its stream back (PutStream).
func (g RandomRows) Close() { PutStream(g.rng) }

// streams recycles seeded random sources: a math/rand source is a 4.9 KB
// table, and reseeding one in place starts exactly the stream a fresh
// source seeded alike draws.
var streams sync.Pool

// Stream returns the stream rand.New(rand.NewSource(seed)) draws, on a
// source from the pool when one is free. PutStream hands it back once
// nothing draws from it any more.
func Stream(seed int64) *rand.Rand {
	if r, _ := streams.Get().(*rand.Rand); r != nil {
		r.Seed(seed)
		return r
	}
	return rand.New(rand.NewSource(seed))
}

// PutStream hands a stream Stream returned back to the pool.
func PutStream(r *rand.Rand) { streams.Put(r) }

// ConstDense returns a rows x cols matrix with every entry equal to v.
func ConstDense(rows, cols int, v float64) *Dense {
	d := NewDense(rows, cols)
	for i := range d.Data {
		d.Data[i] = v
	}
	return d
}

// At returns element (i, j).
func (d *Dense) At(i, j int) float64 { return d.Data[i*d.Cols+j] }

// Mul returns d * o.
func (d *Dense) Mul(o *Dense) *Dense {
	if d.Cols != o.Rows {
		panic(fmt.Sprintf("linalg: dense mul shape mismatch %dx%d * %dx%d", d.Rows, d.Cols, o.Rows, o.Cols))
	}
	out := NewDense(d.Rows, o.Cols)
	Gemm(out.asTile(), d.asTile(), o.asTile())
	return out
}

// Add returns d + o.
func (d *Dense) Add(o *Dense) *Dense { return d.zip(o, func(x, y float64) float64 { return x + y }) }

// Sub returns d - o.
func (d *Dense) Sub(o *Dense) *Dense { return d.zip(o, func(x, y float64) float64 { return x - y }) }

// ElemMul returns the Hadamard product d ⊙ o.
func (d *Dense) ElemMul(o *Dense) *Dense {
	return d.zip(o, func(x, y float64) float64 { return x * y })
}

// ElemDiv returns the element-wise quotient d ⊘ o.
func (d *Dense) ElemDiv(o *Dense) *Dense {
	return d.zip(o, func(x, y float64) float64 { return x / y })
}

// Scale returns s * d.
func (d *Dense) Scale(s float64) *Dense {
	return d.Map(func(x float64) float64 { return s * x })
}

// Map returns f applied element-wise.
func (d *Dense) Map(f func(float64) float64) *Dense {
	out := NewDense(d.Rows, d.Cols)
	for i, v := range d.Data {
		out.Data[i] = f(v)
	}
	return out
}

// T returns the transpose.
func (d *Dense) T() *Dense {
	out := NewDense(d.Cols, d.Rows)
	for i := 0; i < d.Rows; i++ {
		for j := 0; j < d.Cols; j++ {
			out.Data[j*d.Rows+i] = d.Data[i*d.Cols+j]
		}
	}
	return out
}

// FrobeniusNorm returns sqrt(sum of squares), used for convergence checks.
func (d *Dense) FrobeniusNorm() float64 {
	var s float64
	for _, v := range d.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// AlmostEqual reports element-wise closeness within tol (see Close).
func (d *Dense) AlmostEqual(o *Dense, tol float64) bool {
	if d.Rows != o.Rows || d.Cols != o.Cols {
		return false
	}
	for i, v := range d.Data {
		if !Close(v, o.Data[i], tol) {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest |d-o| entry, handy in test diagnostics.
func (d *Dense) MaxAbsDiff(o *Dense) float64 {
	if d.Rows != o.Rows || d.Cols != o.Cols {
		return math.Inf(1)
	}
	var m float64
	for i, v := range d.Data {
		if a := math.Abs(v - o.Data[i]); a > m {
			m = a
		}
	}
	return m
}

// TileAt extracts the tile with tile-coordinates (ti, tj) for tile size ts,
// handling fringe tiles that are smaller than ts.
func (d *Dense) TileAt(ti, tj, ts int) *Tile {
	r0, c0 := ti*ts, tj*ts
	rows := min(ts, d.Rows-r0)
	cols := min(ts, d.Cols-c0)
	t := NewTile(rows, cols)
	for i := 0; i < rows; i++ {
		copy(t.Data[i*cols:(i+1)*cols], d.Data[(r0+i)*d.Cols+c0:(r0+i)*d.Cols+c0+cols])
	}
	return t
}

func (d *Dense) zip(o *Dense, f func(x, y float64) float64) *Dense {
	if d.Rows != o.Rows || d.Cols != o.Cols {
		panic(fmt.Sprintf("linalg: dense zip shape mismatch %dx%d vs %dx%d", d.Rows, d.Cols, o.Rows, o.Cols))
	}
	out := NewDense(d.Rows, d.Cols)
	for i := range d.Data {
		out.Data[i] = f(d.Data[i], o.Data[i])
	}
	return out
}

func (d *Dense) asTile() *Tile { return &Tile{Rows: d.Rows, Cols: d.Cols, Data: d.Data} }
