package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// newDenseFrom wraps data (len rows*cols, row-major) without copying.
func newDenseFrom(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("linalg: dense data length %d != %d*%d", len(data), rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: data}
}

// identity returns the n x n identity matrix.
func identity(n int) *Dense {
	d := NewDense(n, n)
	for i := 0; i < n; i++ {
		d.Data[i*n+i] = 1
	}
	return d
}

func TestDenseMulIdentity(t *testing.T) {
	a := RandomDense(7, 7, 42)
	if !a.Mul(identity(7)).AlmostEqual(a, 1e-12) {
		t.Fatal("A*I != A")
	}
	if !identity(7).Mul(a).AlmostEqual(a, 1e-12) {
		t.Fatal("I*A != A")
	}
}

func TestDenseAssociativity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, l, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := RandomDense(m, k, seed)
		b := RandomDense(k, l, seed+1)
		c := RandomDense(l, n, seed+2)
		return a.Mul(b).Mul(c).AlmostEqual(a.Mul(b.Mul(c)), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDenseElementwise(t *testing.T) {
	a := newDenseFrom(2, 2, []float64{1, 2, 3, 4})
	b := newDenseFrom(2, 2, []float64{4, 3, 2, 1})
	if got := a.Add(b).At(0, 0); got != 5 {
		t.Fatalf("add: %v", got)
	}
	if got := a.Sub(b).At(0, 1); got != -1 {
		t.Fatalf("sub: %v", got)
	}
	if got := a.ElemMul(b).At(1, 0); got != 6 {
		t.Fatalf("elemmul: %v", got)
	}
	if got := a.ElemDiv(b).At(1, 1); got != 4 {
		t.Fatalf("elemdiv: %v", got)
	}
	if got := a.Scale(2).At(1, 1); got != 8 {
		t.Fatalf("scale: %v", got)
	}
	if got := a.FrobeniusNorm(); !Close(got, math.Sqrt(30), 1e-12) {
		t.Fatalf("frobenius: %v", got)
	}
}

func TestDenseTranspose(t *testing.T) {
	a := RandomDense(5, 9, 7)
	at := a.T()
	if at.Rows != 9 || at.Cols != 5 {
		t.Fatalf("transpose shape %dx%d", at.Rows, at.Cols)
	}
	if !at.T().AlmostEqual(a, 0) {
		t.Fatal("double transpose != original")
	}
}

// Property: extracting all tiles and writing them back reconstructs the
// matrix exactly, for any tile size, including fringe tiles.
func TestDenseTileRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(40), 1+rng.Intn(40)
		ts := 1 + rng.Intn(12)
		a := RandomDense(rows, cols, seed)
		out := NewDense(rows, cols)
		for ti := 0; ti*ts < rows; ti++ {
			for tj := 0; tj*ts < cols; tj++ {
				tile := a.TileAt(ti, tj, ts)
				for i := 0; i < tile.Rows; i++ {
					copy(out.Data[(ti*ts+i)*cols+tj*ts:], tile.Data[i*tile.Cols:(i+1)*tile.Cols])
				}
			}
		}
		return out.AlmostEqual(a, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomSparseDensity(t *testing.T) {
	d := RandomSparseDense(200, 200, 0.1, 99)
	nnz := 0
	for _, v := range d.Data {
		if v != 0 {
			nnz++
		}
	}
	got := float64(nnz) / float64(len(d.Data))
	if got < 0.07 || got > 0.13 {
		t.Fatalf("density %v far from 0.1", got)
	}
}

func TestRandomDenseDeterminism(t *testing.T) {
	a := RandomDense(10, 10, 5)
	b := RandomDense(10, 10, 5)
	if !a.AlmostEqual(b, 0) {
		t.Fatal("same seed must give same matrix")
	}
	c := RandomDense(10, 10, 6)
	if a.AlmostEqual(c, 0) {
		t.Fatal("different seeds should give different matrices")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := newDenseFrom(1, 3, []float64{1, 2, 3})
	b := newDenseFrom(1, 3, []float64{1, 5, 3})
	if got := a.MaxAbsDiff(b); got != 3 {
		t.Fatalf("maxabsdiff: %v", got)
	}
	c := NewDense(2, 3)
	if !math.IsInf(a.MaxAbsDiff(c), 1) {
		t.Fatal("shape mismatch should report +Inf")
	}
}

func TestConstDense(t *testing.T) {
	d := ConstDense(3, 4, 2.5)
	if d.Rows != 3 || d.Cols != 4 || len(d.Data) != 12 {
		t.Fatalf("const shape %dx%d, %d elements", d.Rows, d.Cols, len(d.Data))
	}
	for i, v := range d.Data {
		if v != 2.5 {
			t.Fatalf("const element %d = %v", i, v)
		}
	}
}
