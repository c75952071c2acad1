package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
)

// The oracles below are plain code that shares nothing with the packages
// under test: a matrix here is just (rows, cols, row-major data).

// digest is the sha256 of the raw row-major little-endian float64 payload,
// the same definition cumulon and cumulond print, so digests compare across
// the CLI, the server and this harness.
func digest(data []float64) string {
	h := sha256.New()
	var buf [8 * 512]byte
	for len(data) > 0 {
		n := len(data)
		if n > 512 {
			n = 512
		}
		for i, v := range data[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		h.Write(buf[:8*n])
		data = data[n:]
	}
	return hex.EncodeToString(h.Sum(nil))
}

// relClose reports whether got matches want within tol, relative to the
// largest magnitude in want. NaN anywhere fails.
func relClose(got, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	scale, worst := 0.0, 0.0
	for i, w := range want {
		g := got[i]
		if math.IsNaN(g) || math.IsNaN(w) {
			return fmt.Errorf("NaN at element %d", i)
		}
		scale = math.Max(scale, math.Abs(w))
		worst = math.Max(worst, math.Abs(g-w))
	}
	if worst > tol*scale {
		return fmt.Errorf("max abs error %.3g exceeds %.3g x %.3g", worst, tol, scale)
	}
	return nil
}

// freivalds checks C = A·B for n×n row-major matrices by comparing C·x with
// A·(B·x) for a seeded random x: O(n²) work, and a wrong C survives only if
// its error is orthogonal to x.
func freivalds(a, b, c []float64, n int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64() + 0.5
	}
	matVec := func(m, v []float64) []float64 {
		out := make([]float64, n)
		for i := 0; i < n; i++ {
			row := m[i*n : (i+1)*n]
			s := 0.0
			for j, mv := range row {
				s += mv * v[j]
			}
			out[i] = s
		}
		return out
	}
	return relClose(matVec(c, x), matVec(a, matVec(b, x)), 1e-9)
}

// gnmfReference runs iters multiplicative-update iterations of Gaussian NMF
//
//	H ← H ⊙ (Wᵀ V) ⊘ ((Wᵀ W) H)
//	W ← W ⊙ (V Hᵀ) ⊘ (W (H Hᵀ))
//
// with plain loops over V's nonzeros. v is m×n, w is m×r, h is r×n, all
// row-major; w and h are updated in place.
func gnmfReference(v, w, h []float64, m, n, r, iters int) {
	type nz struct {
		i, j int
		v    float64
	}
	var nzs []nz
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if x := v[i*n+j]; x != 0 {
				nzs = append(nzs, nz{i, j, x})
			}
		}
	}
	wtv := make([]float64, r*n)
	vht := make([]float64, m*r)
	gram := make([]float64, r*r)
	for it := 0; it < iters; it++ {
		// H update.
		clear(wtv)
		for _, e := range nzs {
			for k := 0; k < r; k++ {
				wtv[k*n+e.j] += w[e.i*r+k] * e.v
			}
		}
		clear(gram) // Wᵀ W
		for i := 0; i < m; i++ {
			for a := 0; a < r; a++ {
				for b := 0; b < r; b++ {
					gram[a*r+b] += w[i*r+a] * w[i*r+b]
				}
			}
		}
		newH := make([]float64, r*n)
		for k := 0; k < r; k++ {
			for j := 0; j < n; j++ {
				den := 0.0
				for l := 0; l < r; l++ {
					den += gram[k*r+l] * h[l*n+j]
				}
				newH[k*n+j] = h[k*n+j] * wtv[k*n+j] / den
			}
		}
		copy(h, newH)
		// W update.
		clear(vht)
		for _, e := range nzs {
			for k := 0; k < r; k++ {
				vht[e.i*r+k] += e.v * h[k*n+e.j]
			}
		}
		clear(gram) // H Hᵀ
		for a := 0; a < r; a++ {
			for b := 0; b < r; b++ {
				s := 0.0
				for j := 0; j < n; j++ {
					s += h[a*n+j] * h[b*n+j]
				}
				gram[a*r+b] = s
			}
		}
		for i := 0; i < m; i++ {
			var den [64]float64 // r ≤ 64 at every scale the harness uses
			for k := 0; k < r; k++ {
				s := 0.0
				for l := 0; l < r; l++ {
					s += w[i*r+l] * gram[l*r+k]
				}
				den[k] = s
			}
			for k := 0; k < r; k++ {
				w[i*r+k] = w[i*r+k] * vht[i*r+k] / den[k]
			}
		}
	}
}
