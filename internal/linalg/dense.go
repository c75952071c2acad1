package linalg

import (
	"fmt"
	"math"
	"math/rand"
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
func RandomDense(rows, cols int, seed int64) *Dense {
	rng := rand.New(rand.NewSource(seed))
	d := NewDense(rows, cols)
	for i := range d.Data {
		d.Data[i] = rng.Float64()
	}
	return d
}

// RandomSparseDense returns a rows x cols matrix where each entry is
// nonzero with probability density, drawn uniformly from [0,1). It models
// sparse inputs (e.g. ratings matrices) while keeping a dense layout for
// oracle simplicity.
func RandomSparseDense(rows, cols int, density float64, seed int64) *Dense {
	rng := rand.New(rand.NewSource(seed))
	d := NewDense(rows, cols)
	for i := range d.Data {
		if rng.Float64() < density {
			d.Data[i] = rng.Float64()
		}
	}
	return d
}

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
