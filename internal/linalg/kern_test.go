package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"regexp"
	"strings"
	"testing"
)

// Tests that pin what must not move when a second micro-kernel joins the
// tree: which shapes reach the blocked driver at all, and that the two
// kernels are interchangeable bit for bit on everything a float64 can
// hold, at every fringe of the wider register tile, on any alignment.

// TestUseBlockedDispatchTable pins the public kernels' routing on shapes
// straddling every cutoff to the answers of the scalar-only tree. The
// references skip a==0 terms and the blocked path does not, so a shape
// that changed sides could flip the sign of a zero in a committed digest.
func TestUseBlockedDispatchTable(t *testing.T) {
	for _, c := range []struct {
		m, k, n int
		want    bool
	}{
		{64, 64, 64, true}, {63, 64, 64, false}, {64, 63, 64, false}, {64, 64, 63, false},
		{16, 1024, 16, true}, {15, 1024, 32, false}, {16, 1023, 16, false},
		{1024, 16, 16, true}, {1024, 15, 32, false},
		{256, 256, 8, true}, {256, 256, 7, false}, {512, 512, 7, false},
		{256, 256, 16, true}, {256, 256, 24, true}, {256, 256, 32, true},
		{32, 256, 256, true}, {256, 32, 256, true}, {8, 512, 512, false},
		{16, 16, 1024, true}, {16, 16, 1023, false},
		{512, 512, 512, true}, {1, 1, 1, false}, {0, 64, 64, false},
	} {
		if got := useBlocked(c.m, c.k, c.n); got != c.want {
			t.Errorf("useBlocked(%d, %d, %d) = %v, want %v", c.m, c.k, c.n, got, c.want)
		}
	}
}

// BlockQuantum is a multiple of every micro-kernel's mr and nr: a block
// shape whose mc and nc are multiples of it is legal whichever kernel the
// host selected.
const BlockQuantum = 8

// TestKernelTileInvariants: the constants sized for "every kernel" hold
// for every kernel.
func TestKernelTileInvariants(t *testing.T) {
	for _, kern := range microKernels {
		if BlockQuantum%kern.mr != 0 || BlockQuantum%kern.nr != 0 {
			t.Errorf("BlockQuantum %d is not a multiple of %s's %dx%d tile", BlockQuantum, kern.name, kern.mr, kern.nr)
		}
		if kern.mr*kern.nr > maxTile {
			t.Errorf("%s tile %dx%d exceeds maxTile %d", kern.name, kern.mr, kern.nr, maxTile)
		}
	}
}

// TestDefaultBlockingLegalUnderEveryKernel: the built-in blocking is legal
// under each kernel as the process's selected one, and KernelName names
// it.
func TestDefaultBlockingLegalUnderEveryKernel(t *testing.T) {
	forEachActiveKernel(t, func(t *testing.T, kern *microKern) {
		cf := defaultBlockConf
		if cf.kern != kern || cf.mc <= 0 || cf.mc%kern.mr != 0 || cf.nc <= 0 || cf.nc%kern.nr != 0 || cf.kc <= 0 {
			t.Fatalf("built-in blocking mc=%d kc=%d nc=%d is illegal under %s's %dx%d tile",
				cf.mc, cf.kc, cf.nc, kern.name, kern.mr, kern.nr)
		}
		if KernelName() != kern.name {
			t.Fatalf("KernelName() = %q with %s active", KernelName(), kern.name)
		}
	})
}

// gemmModes runs body for C += A·B, AᵀB and ABᵀ on the same logical
// product, handing it the stored operands and the matching reference.
func gemmModes(a, b *Tile, body func(name string, la, lb *Tile, ta, tb bool, ref func(c, a, b *Tile))) {
	body("gemm", a, b, false, false, refGemm)
	body("gemmTA", transpose(a), b, true, false, refGemmTA)
	body("gemmTB", a, transpose(b), false, true, refGemmTB)
}

// TestKernelFringeShapes walks the edges of the 4×8 tile — one column
// past a panel, one short of two, one row past a block — at nonzero C,
// under production blocking and under blocks of a single register tile.
func TestKernelFringeShapes(t *testing.T) {
	forEachKernel(t, func(t *testing.T, kern *microKern) {
		rng := rand.New(rand.NewSource(31))
		for _, cf := range []blockConf{prodConf(kern), kernConf(kern, 1, 5, 1)} {
			for _, n := range []int{8, 9, 15, 16, 17, 31, 33} {
				for _, m := range []int{4, 5, 63, 64, 65} {
					a, b := randTile(rng, m, 37), randTile(rng, 37, n)
					c0 := randTile(rng, m, n)
					gemmModes(a, b, func(name string, la, lb *Tile, ta, tb bool, ref func(c, a, b *Tile)) {
						got, want := c0.clone(), c0.clone()
						gemmBlockedSeq(cf, got, la, lb, ta, tb, nil)
						ref(want, la, lb)
						assertExact(t, got, want, fmt.Sprintf("%s %dx37x%d mc=%d", name, m, n, cf.mc))
					})
				}
			}
		}
	})
}

// specialValues are the float64s whose handling differs between "a
// multiply and an add" and anything cleverer: infinities, NaN, signed
// zeros, subnormals, and magnitudes whose products overflow or vanish.
var specialValues = []float64{
	0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040, -0x1p-1030,
	math.MaxFloat64, -math.MaxFloat64, 0x1p600, 0x1p-600, 1 + 0x1p-52, 3,
}

func specialTile(rng *rand.Rand, rows, cols int) *Tile {
	t := NewTile(rows, cols)
	for i := range t.Data {
		if rng.Intn(3) == 0 {
			t.Data[i] = rng.NormFloat64()
		} else {
			t.Data[i] = specialValues[rng.Intn(len(specialValues))]
		}
	}
	return t
}

// plainGemm is the contract of block.go written out with no zero-skip:
// every term is multiplied, rounded, added, rounded, in ascending k.
func plainGemm(c, a, b *Tile) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := c.Data[i*c.Cols+j]
			for p := 0; p < a.Cols; p++ {
				s += a.Data[i*a.Cols+p] * b.Data[p*b.Cols+j]
			}
			c.Data[i*c.Cols+j] = s
		}
	}
}

// TestKernelSpecialValues holds every kernel to plainGemm on operands
// full of ±Inf, NaN, −0 and subnormals: each non-NaN result must match
// bit for bit (the sign of a zero included), and a NaN must be a NaN
// (payloads are the one thing the hardware may choose).
func TestKernelSpecialValues(t *testing.T) {
	forEachKernel(t, func(t *testing.T, kern *microKern) {
		rng := rand.New(rand.NewSource(32))
		for trial := 0; trial < 60; trial++ {
			m, k, n := 1+rng.Intn(20), 1+rng.Intn(12), 1+rng.Intn(20)
			a, b := specialTile(rng, m, k), specialTile(rng, k, n)
			got := specialTile(rng, m, n)
			want := got.clone()
			gemmBlockedSeq(kernConf(kern, 1+rng.Intn(2), 1+rng.Intn(5), 1+rng.Intn(2)), got, a, b, false, false, nil)
			plainGemm(want, a, b)
			nans := 0
			for i, w := range want.Data {
				g := got.Data[i]
				if math.IsNaN(w) {
					nans++
					if !math.IsNaN(g) {
						t.Fatalf("trial %d element %d: got %g, want NaN", trial, i, g)
					}
					continue
				}
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("trial %d element %d: got %g (%#x), want %g (%#x)",
						trial, i, g, math.Float64bits(g), w, math.Float64bits(w))
				}
			}
			if trial == 0 && (nans == 0 || nans == len(want.Data)) {
				t.Fatalf("special-value mix is degenerate: %d of %d results NaN", nans, len(want.Data))
			}
		}
	})
}

// TestKernelUnalignedData runs the kernels on tiles whose Data starts at
// every 8-byte offset within a 32-byte vector: the assembly uses
// unaligned loads and stores and must not care.
func TestKernelUnalignedData(t *testing.T) {
	forEachKernel(t, func(t *testing.T, kern *microKern) {
		rng := rand.New(rand.NewSource(33))
		offset := func(src *Tile, off int) *Tile {
			buf := make([]float64, off+len(src.Data))
			copy(buf[off:], src.Data)
			return &Tile{Rows: src.Rows, Cols: src.Cols, Data: buf[off:]}
		}
		a, b, c0 := randTile(rng, 21, 19), randTile(rng, 19, 27), randTile(rng, 21, 27)
		want := c0.clone()
		refGemm(want, a, b)
		for off := 0; off < 4; off++ {
			got := offset(c0, off)
			gemmBlockedSeq(kernConf(kern, 2, 7, 2), got, offset(a, (off+1)%4), offset(b, (off+2)%4), false, false, nil)
			assertExact(t, got, want, fmt.Sprintf("data offset %d", off))
		}
	})
}

// TestAssemblyHasNoFMA greps the kernel source: a fused multiply-add
// rounds once where the contract rounds twice, so none may ever appear.
func TestAssemblyHasNoFMA(t *testing.T) {
	src, err := os.ReadFile("kern_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	fma := regexp.MustCompile(`(?i)\bVF(N?M(ADD|SUB)|MADDSUB|MSUBADD)`)
	for i, line := range strings.Split(string(src), "\n") {
		code, _, _ := strings.Cut(line, "//")
		if fma.MatchString(code) {
			t.Errorf("kern_amd64.s:%d: fused multiply-add in the micro-kernel: %s", i+1, strings.TrimSpace(line))
		}
	}
}
