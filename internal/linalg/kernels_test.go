package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveGemm is an intentionally simple triple loop used as the oracle for
// the optimized kernels.
func naiveGemm(a, b *Tile) *Tile {
	c := NewTile(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for p := 0; p < a.Cols; p++ {
				s += a.at(i, p) * b.at(p, j)
			}
			c.set(i, j, s)
		}
	}
	return c
}

func randTile(rng *rand.Rand, rows, cols int) *Tile {
	t := NewTile(rows, cols)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

// Zero resets every element to 0 in place.
func (t *Tile) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Equal reports whether two tiles have identical shape and elements.
func (t *Tile) Equal(o *Tile) bool {
	if t.Rows != o.Rows || t.Cols != o.Cols {
		return false
	}
	for i, v := range t.Data {
		if v != o.Data[i] {
			return false
		}
	}
	return true
}

func TestGemmMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		m, k, n := 1+rng.Intn(17), 1+rng.Intn(17), 1+rng.Intn(17)
		a, b := randTile(rng, m, k), randTile(rng, k, n)
		got := NewTile(m, n)
		Gemm(got, a, b)
		want := naiveGemm(a, b)
		if !got.almostEqual(want, 1e-12) {
			t.Fatalf("trial %d (%d,%d,%d): gemm mismatch", trial, m, k, n)
		}
	}
}

func TestGemmAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := randTile(rng, 5, 7), randTile(rng, 7, 3)
	c := randTile(rng, 5, 3)
	base := c.clone()
	Gemm(c, a, b)
	want := naiveGemm(a, b)
	AddInto(want, base)
	if !c.almostEqual(want, 1e-12) {
		t.Fatal("gemm must accumulate into c, not overwrite it")
	}
}

func TestGemmTAMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		k, m, n := 1+rng.Intn(13), 1+rng.Intn(13), 1+rng.Intn(13)
		a, b := randTile(rng, k, m), randTile(rng, k, n)
		got := NewTile(m, n)
		GemmTA(got, a, b)
		want := naiveGemm(transpose(a), b)
		if !got.almostEqual(want, 1e-12) {
			t.Fatalf("trial %d: gemmTA mismatch", trial)
		}
	}
}

func TestGemmTBMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		m, k, n := 1+rng.Intn(13), 1+rng.Intn(13), 1+rng.Intn(13)
		a, b := randTile(rng, m, k), randTile(rng, n, k)
		got := NewTile(m, n)
		GemmTB(got, a, b)
		want := naiveGemm(a, transpose(b))
		if !got.almostEqual(want, 1e-12) {
			t.Fatalf("trial %d: gemmTB mismatch", trial)
		}
	}
}

func TestGemmShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	Gemm(NewTile(2, 2), NewTile(2, 3), NewTile(4, 2))
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tl := randTile(rng, 1+rng.Intn(20), 1+rng.Intn(20))
		return transpose(transpose(tl)).Equal(tl)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ.
func TestGemmTransposeIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(10), 1+rng.Intn(10), 1+rng.Intn(10)
		a, b := randTile(rng, m, k), randTile(rng, k, n)
		ab := NewTile(m, n)
		Gemm(ab, a, b)
		btat := NewTile(n, m)
		Gemm(btat, transpose(b), transpose(a))
		return transpose(ab).almostEqual(btat, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMapZipScale(t *testing.T) {
	a := &Tile{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	b := &Tile{Rows: 2, Cols: 2, Data: []float64{10, 20, 30, 40}}
	sum := Zip(a, b, func(x, y float64) float64 { return x + y })
	if sum.at(1, 1) != 44 {
		t.Fatalf("zip add: got %v", sum.at(1, 1))
	}
	sq := Map(a, func(x float64) float64 { return x * x })
	if sq.at(1, 0) != 9 {
		t.Fatalf("map square: got %v", sq.at(1, 0))
	}
	sc := Scale(a, 3)
	if sc.at(0, 1) != 6 {
		t.Fatalf("scale: got %v", sc.at(0, 1))
	}
	if sumTile(a) != 10 {
		t.Fatalf("sum: got %v", sumTile(a))
	}
}

func TestGemmFlops(t *testing.T) {
	if GemmFlops(2, 3, 4) != 48 {
		t.Fatalf("flops: got %d", GemmFlops(2, 3, 4))
	}
	// Must not overflow for realistic big-data sizes.
	if GemmFlops(100000, 100000, 100000) <= 0 {
		t.Fatal("flops overflowed int64")
	}
}

func TestClose(t *testing.T) {
	cases := []struct {
		a, b, tol float64
		want      bool
	}{
		{1, 1, 0, true},
		{1, 1.0000001, 1e-6, true},
		{1, 1.1, 1e-6, false},
		{1e12, 1e12 * (1 + 1e-9), 1e-6, true},
		{math.NaN(), math.NaN(), 1e-6, true},
		{math.NaN(), 1, 1e-6, false},
	}
	for i, c := range cases {
		if got := Close(c.a, c.b, c.tol); got != c.want {
			t.Errorf("case %d: Close(%v,%v,%v)=%v want %v", i, c.a, c.b, c.tol, got, c.want)
		}
	}
}

func TestTileCloneIndependence(t *testing.T) {
	a := &Tile{Rows: 1, Cols: 2, Data: []float64{1, 2}}
	b := a.clone()
	b.set(0, 0, 99)
	if a.at(0, 0) != 1 {
		t.Fatal("clone must not alias original data")
	}
}

// transpose returns a new tile holding tᵀ.
func transpose(t *Tile) *Tile {
	out := NewTile(t.Cols, t.Rows)
	TransposeInto(out, t)
	return out
}

// sumTile returns the sum of all elements of t.
func sumTile(t *Tile) float64 {
	var s float64
	for _, v := range t.Data {
		s += v
	}
	return s
}

func (t *Tile) at(i, j int) float64 { return t.Data[i*t.Cols+j] }

func (t *Tile) set(i, j int, v float64) { t.Data[i*t.Cols+j] = v }

// clone returns a deep copy of t.
func (t *Tile) clone() *Tile {
	return &Tile{Rows: t.Rows, Cols: t.Cols, Data: append([]float64(nil), t.Data...)}
}

// almostEqual reports whether two tiles have identical shape and elements
// within absolute-or-relative tolerance tol.
func (t *Tile) almostEqual(o *Tile, tol float64) bool {
	if t.Rows != o.Rows || t.Cols != o.Cols {
		return false
	}
	for i, v := range t.Data {
		if !Close(v, o.Data[i], tol) {
			return false
		}
	}
	return true
}
