package store

import (
	"bytes"
	"testing"

	"cumulon/internal/linalg"
)

// Native fuzz targets for the tile decoders, which sit on the trust
// boundary: checkpoint payloads and DFS blocks reach them as plain bytes.
// For any input a decoder must not panic, must not allocate more than the
// payload itself accounts for, and must accept only canonical encodings —
// every accepted payload re-encodes to the identical bytes. Decoding into
// a recycled buffer (the engine's path) and into a fresh tile (DecodeTile)
// must agree bit for bit, so both are encoded and compared as bytes, NaN
// payloads included. Seeds are committed under testdata/fuzz.

func FuzzDecodeTile(f *testing.F) {
	f.Add(EncodeTile(&linalg.Tile{Rows: 2, Cols: 3, Data: []float64{1, -2, 0, 4.5, 1e300, -0.0}}))
	f.Add(overflowDense())
	f.Fuzz(func(t *testing.T, raw []byte) {
		dirty := linalg.NewTile(3, 3)
		for i := range dirty.Data {
			dirty.Data[i] = -7
		}
		before := *dirty
		err := DecodeTileInto(dirty, raw)
		fresh, freshErr := DecodeTile(raw)
		if (err == nil) != (freshErr == nil) {
			t.Fatalf("decode-into says %v, decode-fresh says %v", err, freshErr)
		}
		if err != nil {
			if dirty.Rows != before.Rows || dirty.Cols != before.Cols || &dirty.Data[0] != &before.Data[0] || fresh != nil {
				t.Fatal("a rejected payload touched the destination")
			}
			return
		}
		if 8*cap(fresh.Data) > len(raw) || 8*cap(dirty.Data) > max(len(raw), 72) {
			t.Fatalf("decoding %d bytes allocated %d / %d values", len(raw), cap(fresh.Data), cap(dirty.Data))
		}
		if got := EncodeTile(fresh); !bytes.Equal(got, raw) {
			t.Fatalf("accepted payload re-encodes differently (%d bytes in, %d out)", len(raw), len(got))
		}
		if !bytes.Equal(EncodeTile(dirty), raw) {
			t.Fatal("decode into a recycled buffer disagrees with decode into a fresh tile")
		}
	})
}

func FuzzDecodeSparseTile(f *testing.F) {
	f.Add(EncodeSparseTile(linalg.DenseToCSR(&linalg.Tile{Rows: 2, Cols: 3, Data: []float64{1, 0, 0, 0, -2, 3}})))
	f.Add(sealed(header(magicSparse, 1<<32-1, 1<<32-1, 1<<32-1)))
	f.Fuzz(func(t *testing.T, raw []byte) {
		dirty := &linalg.CSRTile{RowPtr: []int{-1, -1, -1}, ColIdx: []int{-1, -1}, Val: []float64{-7, -7}}
		err := DecodeSparseTileInto(dirty, raw)
		fresh, freshErr := DecodeSparseTile(raw)
		if (err == nil) != (freshErr == nil) {
			t.Fatalf("decode-into says %v, decode-fresh says %v", err, freshErr)
		}
		// Accepted or not, the buffers are bounded by the payload: 4 bytes
		// per row pointer and column index, 8 per value.
		if n := 4*(cap(dirty.RowPtr)+cap(dirty.ColIdx)) + 8*cap(dirty.Val); n > max(len(raw), 36) {
			t.Fatalf("decoding %d bytes holds buffers worth %d", len(raw), n)
		}
		if err != nil {
			return
		}
		if uint64(fresh.NNZ()) > uint64(fresh.Rows)*uint64(fresh.Cols) {
			t.Fatalf("accepted a %dx%d tile with %d entries", fresh.Rows, fresh.Cols, fresh.NNZ())
		}
		for i := 0; i < fresh.Rows; i++ {
			for p := fresh.RowPtr[i] + 1; p < fresh.RowPtr[i+1]; p++ {
				if fresh.ColIdx[p] <= fresh.ColIdx[p-1] {
					t.Fatalf("accepted row %d with columns %v, not strictly ascending", i, fresh.ColIdx[fresh.RowPtr[i]:fresh.RowPtr[i+1]])
				}
			}
		}
		if got := EncodeSparseTile(fresh); !bytes.Equal(got, raw) {
			t.Fatalf("accepted payload re-encodes differently (%d bytes in, %d out)", len(raw), len(got))
		}
		if !bytes.Equal(EncodeSparseTile(dirty), raw) {
			t.Fatal("decode into a recycled buffer disagrees with decode into a fresh tile")
		}
		if uint64(fresh.Rows)*uint64(fresh.Cols) <= 1<<16 {
			fresh.ToDense() // structurally valid: scattering cannot index out of range
		}
	})
}
