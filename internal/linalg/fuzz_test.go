package linalg

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// Native fuzz targets for the blocked GEMM driver. Each target decodes
// the fuzz payload into shapes, a micro-kernel, a (deliberately small)
// block configuration and finite matrix data, then checks the blocked
// kernel against the naive reference. Shapes are kept small so the fuzzer's
// iteration rate stays high; the block configuration is shrunk to match,
// which makes every fringe and multi-block path reachable at those sizes
// even though the public cutoff would route them to the naive loop.

// fuzzDims decodes one byte into a dimension in [1, 48].
func fuzzDims(b byte) int { return 1 + int(b)%48 }

// fuzzHeader is the number of payload bytes that decode into dimensions,
// block configuration and kernel; matrix data starts after it.
const fuzzHeader = 7

// fuzzConf decodes four bytes into a legal block configuration whose
// blocks are small enough that fuzz-sized inputs span several of them.
// The last byte picks the micro-kernel among those this process can run,
// so one corpus drives the AVX2 and the scalar kernel alike (and only the
// scalar one where that is all there is).
func fuzzConf(b0, b1, b2, bk byte) blockConf {
	kern := microKernels[int(bk)%len(microKernels)]
	return kernConf(kern, 1+int(b0)%6, 1+int(b1)%24, 1+int(b2)%10)
}

// fuzzFill populates dst with finite values derived from the payload,
// cycling if the payload is short. Byte 0 maps to exactly 0 so the
// fuzzer can reach refGemm's zero-skip branch; other bytes spread over
// [-1.98, +2] with varied binary exponents.
func fuzzFill(dst []float64, data []byte) {
	if len(data) == 0 {
		return
	}
	for i := range dst {
		b := data[i%len(data)]
		if b == 0 {
			dst[i] = 0
			continue
		}
		dst[i] = (float64(b) - 127.5) / 64.0
	}
}

func fuzzConfString(cf blockConf) string {
	return fmt.Sprintf("{mc:%d kc:%d nc:%d kern:%s}", cf.mc, cf.kc, cf.nc, cf.kern.name)
}

func fuzzTile(rows, cols int, data []byte, salt byte) *Tile {
	t := NewTile(rows, cols)
	seeded := append([]byte{salt}, data...)
	fuzzFill(t.Data, seeded)
	return t
}

func FuzzGemm(f *testing.F) {
	f.Add([]byte("gemm blocked differential seed"))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{255, 1, 128, 7, 64, 200, 3, 0, 0, 99})
	f.Add([]byte{47, 30, 40, 1, 9, 1, 1, 17, 0, 250, 3}) // kernel 1, fringe on both axes
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < fuzzHeader {
			return
		}
		m, k, n := fuzzDims(data[0]), fuzzDims(data[1]), fuzzDims(data[2])
		cf := fuzzConf(data[3], data[4], data[5], data[6])
		a := fuzzTile(m, k, data[fuzzHeader:], 1)
		b := fuzzTile(k, n, data[fuzzHeader:], 2)
		got := fuzzTile(m, n, data[fuzzHeader:], 3)
		want := got.clone()
		gemmBlocked(cf, got, a, b, false, false, nil)
		refGemm(want, a, b)
		if !got.Equal(want) {
			t.Fatalf("blocked gemm diverges from refGemm at %dx%dx%d conf %s", m, k, n, fuzzConfString(cf))
		}
		// Public dispatch on the same data must agree too, whichever
		// path the cutoff picks.
		got2 := fuzzTile(m, n, data[fuzzHeader:], 3)
		Gemm(got2, a, b)
		if !got2.Equal(want) {
			t.Fatalf("Gemm dispatch diverges from refGemm at %dx%dx%d", m, k, n)
		}
	})
}

func FuzzGemmTA(f *testing.F) {
	f.Add([]byte("gemmTA blocked differential seed"))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 1, 2, 3})
	f.Add([]byte{47, 13, 2, 0, 255, 31, 0, 128})
	f.Add([]byte{8, 33, 16, 2, 6, 0, 1, 200, 100, 0, 50}) // kernel 1, n = 2 full tiles + 1 column
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < fuzzHeader {
			return
		}
		m, k, n := fuzzDims(data[0]), fuzzDims(data[1]), fuzzDims(data[2])
		cf := fuzzConf(data[3], data[4], data[5], data[6])
		at := fuzzTile(k, m, data[fuzzHeader:], 4) // A is stored transposed: k x m
		b := fuzzTile(k, n, data[fuzzHeader:], 5)
		got := fuzzTile(m, n, data[fuzzHeader:], 6)
		want := got.clone()
		gemmBlocked(cf, got, at, b, true, false, nil)
		refGemmTA(want, at, b)
		if !got.Equal(want) {
			t.Fatalf("blocked gemmTA diverges from refGemmTA at %dx%dx%d conf %s", m, k, n, fuzzConfString(cf))
		}
		got2 := fuzzTile(m, n, data[fuzzHeader:], 6)
		GemmTA(got2, at, b)
		if !got2.Equal(want) {
			t.Fatalf("GemmTA dispatch diverges from refGemmTA at %dx%dx%d", m, k, n)
		}
	})
}

func FuzzGemmTB(f *testing.F) {
	f.Add([]byte("gemmTB blocked differential seed"))
	f.Add([]byte{5, 40, 5, 0, 0, 0, 200, 100, 50})
	f.Add([]byte{31, 31, 31, 255, 255, 255, 0})
	f.Add([]byte{4, 20, 8, 0, 3, 0, 1, 9, 0, 77}) // kernel 1, m = mr+1, n = nr+1
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < fuzzHeader {
			return
		}
		m, k, n := fuzzDims(data[0]), fuzzDims(data[1]), fuzzDims(data[2])
		cf := fuzzConf(data[3], data[4], data[5], data[6])
		a := fuzzTile(m, k, data[fuzzHeader:], 7)
		bt := fuzzTile(n, k, data[fuzzHeader:], 8) // B is stored transposed: n x k
		got := NewTile(m, n)
		want := NewTile(m, n)
		gemmBlocked(cf, got, a, bt, false, true, nil)
		refGemmTB(want, a, bt)
		if !got.Equal(want) {
			t.Fatalf("blocked gemmTB diverges from refGemmTB at %dx%dx%d conf %s", m, k, n, fuzzConfString(cf))
		}
		// Nonzero accumulator: since the refGemmTB accumulation fix both
		// paths fold terms into the loaded C element ascending-k, so the
		// TB branch is held to bit equality here too.
		gotAcc := fuzzTile(m, n, data[fuzzHeader:], 9)
		wantAcc := gotAcc.clone()
		gemmBlocked(cf, gotAcc, a, bt, false, true, nil)
		refGemmTB(wantAcc, a, bt)
		if !gotAcc.Equal(wantAcc) {
			t.Fatalf("blocked gemmTB accumulate diverges from refGemmTB at %dx%dx%d conf %s", m, k, n, fuzzConfString(cf))
		}
	})
}

// FuzzSetDense holds the selected dense→CSR scan to the portable loop. The
// first three bytes pick the shape (up to 9 rows, up to 70 columns, so
// every tail length and several vector groups occur) and the row stride;
// each element then takes a selector byte — +0, −0, or the raw bits of the
// next eight payload bytes, cycling — so zeros of both signs, NaN payloads,
// infinities and subnormals all reach the compaction. Row pointers, column
// indices and value bits must match.
func FuzzSetDense(f *testing.F) {
	f.Add([]byte("setdense differential seed"))
	f.Add([]byte{0, 69, 3, 2, 0, 0, 0, 0, 0, 0xf8, 0x7f, 1, 2})
	f.Add([]byte{8, 3, 0, 0, 1, 2, 2, 1, 0, 0, 0, 0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		rows, cols := 1+int(data[0])%9, 1+int(data[1])%70
		stride := cols + int(data[2])%5
		payload := data[3:]
		dense := make([]float64, rows*stride)
		var raw [8]byte
		for i := range dense {
			switch sel := payload[i%len(payload)]; sel % 3 {
			case 0:
				dense[i] = 0
			case 1:
				dense[i] = math.Copysign(0, -1)
			default:
				for b := range raw {
					raw[b] = payload[(i+b+1)%len(payload)]
				}
				dense[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
			}
		}
		var got CSRTile
		got.SetDense(dense, rows, cols, stride)
		if want := refSetDense(dense, rows, cols, stride); !sameCSR(&got, want) {
			t.Fatalf("%dx%d stride %d: got %+v, want %+v", rows, cols, stride, got, want)
		}
	})
}
