package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cumulon/internal/linalg"
)

// sameTile reports whether two tiles have identical shape and elements.
func sameTile(a, b *linalg.Tile) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && slices.Equal(a.Data, b.Data)
}

// sealed appends the CRC32 of payload, making it a well-formed container
// whatever its header says.
func sealed(payload []byte) []byte {
	return binary.LittleEndian.AppendUint32(payload, crc32.ChecksumIEEE(payload))
}

func header(words ...uint32) []byte {
	var b []byte
	for _, w := range words {
		b = binary.LittleEndian.AppendUint32(b, w)
	}
	return b
}

// overflowDense is the 16-byte payload whose header claims a 2³¹ x 2³⁰
// tile: 8*rows*cols wraps to 0, so the length matches, and its checksum is
// valid. It used to reach linalg.NewTile and die in makeslice.
func overflowDense() []byte { return sealed(header(magicDense, 1<<31, 1<<30)) }

func TestDecodeTileRejectsShapeOverflow(t *testing.T) {
	raw := overflowDense()
	if len(raw) != 16 {
		t.Fatalf("payload is %d bytes, want 16", len(raw))
	}
	if _, err := DecodeTile(raw); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeTile: got %v, want ErrCorrupt", err)
	}
	into := linalg.NewTile(1, 1)
	if err := DecodeTileInto(into, raw); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeTileInto: got %v, want ErrCorrupt", err)
	}
	if into.Rows != 1 || into.Cols != 1 || len(into.Data) != 1 {
		t.Fatalf("a rejected payload reshaped the destination to %v", into)
	}
	// Each factor alone in range, the product not.
	for _, shape := range [][2]uint32{{1 << 16, 1 << 16}, {1, 1 << 31}, {3, 1}, {1<<32 - 1, 1<<32 - 1}} {
		raw := sealed(append(header(magicDense, shape[0], shape[1]), make([]byte, 16)...))
		if _, err := DecodeTile(raw); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("shape %v over a 2-value payload: got %v, want ErrCorrupt", shape, err)
		}
	}
}

func TestDecodeSparseTileRejectsImpossibleCounts(t *testing.T) {
	// A 1x1 tile storing two entries: row pointers monotone, both column
	// indices in range — only the count is impossible.
	twoInOne := header(magicSparse, 1, 1, 2, 0, 2, 0, 0)
	twoInOne = append(twoInOne, make([]byte, 16)...)
	// Counts far beyond what the payload could hold.
	huge := header(magicSparse, 1<<32-1, 1<<32-1, 1<<32-1)
	manyRows := append(header(magicSparse, 1<<30, 1, 0), make([]byte, 8)...)
	for name, payload := range map[string][]byte{"two-in-one": twoInOne, "huge": huge, "many-rows": manyRows} {
		var into linalg.CSRTile
		if err := DecodeSparseTileInto(&into, sealed(payload)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
		if into.RowPtr != nil || into.ColIdx != nil || into.Val != nil {
			t.Errorf("%s: a payload rejected on its header allocated buffers", name)
		}
	}
}

// TestDecodeSparseTileRejectsNonCanonicalRows: a row must list its columns
// strictly ascending. A duplicate used to decode: SpGemmDense then summed
// both entries while ToDense kept the last, so the CSR kernels and the
// densified path disagreed on one stored tile.
func TestDecodeSparseTileRejectsNonCanonicalRows(t *testing.T) {
	for name, cols := range map[string][]int{"duplicate": {2, 2}, "descending": {3, 1}} {
		raw := EncodeSparseTile(&linalg.CSRTile{Rows: 1, Cols: 4, RowPtr: []int{0, 2}, ColIdx: cols, Val: []float64{1, 2}})
		if _, err := DecodeSparseTile(raw); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s columns %v: got %v, want ErrCorrupt", name, cols, err)
		}
	}
	// Ascending within each row is all it asks: the next row starts over.
	raw := EncodeSparseTile(&linalg.CSRTile{Rows: 2, Cols: 4, RowPtr: []int{0, 2, 4}, ColIdx: []int{1, 3, 0, 3}, Val: []float64{1, 2, 3, 4}})
	if _, err := DecodeSparseTile(raw); err != nil {
		t.Fatalf("canonical two-row tile: %v", err)
	}
}

// TestFloatRunsMatchLoop holds the bulk float runs to the per-element
// little-endian loop they replace on this host, both ways: every length
// 0–33 at every byte offset into the payload, special values and NaN
// payloads included, and nothing written outside the run.
func TestFloatRunsMatchLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	specials := []float64{math.Copysign(0, -1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff0_0000_0000_0001), math.SmallestNonzeroFloat64}
	for n := 0; n <= 33; n++ {
		src := make([]float64, n)
		for i := range src {
			src[i] = rng.NormFloat64()
			if rng.Intn(3) == 0 {
				src[i] = specials[rng.Intn(len(specials))]
			}
		}
		for off := 0; off < 8; off++ {
			got, want := make([]byte, off+8*n+8), make([]byte, off+8*n+8)
			rng.Read(got)
			copy(want, got)
			putFloats(got[off:], src)
			putFloatsLoop(want[off:], src)
			if !bytes.Equal(got, want) {
				t.Fatalf("putFloats n=%d offset %d: % x, want % x", n, off, got, want)
			}
			back, wantBack := make([]float64, n+1), make([]float64, n+1)
			back[n], wantBack[n] = -7, -7
			getFloats(back[:n], got[off:])
			getFloatsLoop(wantBack[:n], got[off:])
			for i := range back {
				if math.Float64bits(back[i]) != math.Float64bits(wantBack[i]) {
					t.Fatalf("getFloats n=%d offset %d element %d: %#x, want %#x", n, off, i, math.Float64bits(back[i]), math.Float64bits(wantBack[i]))
				}
			}
		}
	}
}

// TestDecodeIntoMatchesFresh: decoding into a caller's buffer full of other
// data gives bit for bit what decoding into a fresh tile gives, reuses the
// buffer when it is large enough, and allocates nothing when it does.
func TestDecodeIntoMatchesFresh(t *testing.T) {
	src := linalg.RandomSparseDense(7, 5, 0.4, 3).TileAt(0, 0, 7)
	raw, rawSparse := EncodeTile(src), EncodeSparseTile(linalg.DenseToCSR(src))

	fresh, err := DecodeTile(raw)
	if err != nil {
		t.Fatal(err)
	}
	into := linalg.NewTile(9, 9)
	for i := range into.Data {
		into.Data[i] = -7
	}
	buf := &into.Data[0]
	if err := DecodeTileInto(into, raw); err != nil {
		t.Fatal(err)
	}
	if !sameTile(into, fresh) || !sameTile(fresh, src) {
		t.Fatal("dense decode-into differs from decode-fresh")
	}
	if &into.Data[0] != buf || len(into.Data) != 35 {
		t.Fatal("dense decode-into did not reuse the destination buffer")
	}
	small := linalg.NewTile(2, 2)
	if err := DecodeTileInto(small, raw); err != nil || !sameTile(small, src) {
		t.Fatalf("dense decode into a short buffer: %v", err)
	}
	if n := testing.AllocsPerRun(20, func() { _ = DecodeTileInto(into, raw) }); n != 0 {
		t.Errorf("dense decode-into allocates %v times per call", n)
	}

	freshSp, err := DecodeSparseTile(rawSparse)
	if err != nil {
		t.Fatal(err)
	}
	intoSp := &linalg.CSRTile{RowPtr: make([]int, 40), ColIdx: make([]int, 40), Val: make([]float64, 40)}
	for i := range intoSp.Val {
		intoSp.RowPtr[i], intoSp.ColIdx[i], intoSp.Val[i] = -1, -1, -7
	}
	if err := DecodeSparseTileInto(intoSp, rawSparse); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeSparseTile(intoSp), rawSparse) || !bytes.Equal(EncodeSparseTile(freshSp), rawSparse) {
		t.Fatal("sparse decode-into differs from decode-fresh")
	}
	if !sameTile(intoSp.ToDense(), src) {
		t.Fatal("sparse decode-into lost entries")
	}
	if n := testing.AllocsPerRun(20, func() { _ = DecodeSparseTileInto(intoSp, rawSparse) }); n != 0 {
		t.Errorf("sparse decode-into allocates %v times per call", n)
	}
}

// TestCodecBytesPinned pins the stored format: the sha256 of each encoder's
// output for fixed tiles — special values (a NaN with a payload, −0, ±Inf,
// subnormals), 1×1, ragged shapes and regions read through a row stride —
// recorded when every float run was still written one element at a time.
// Every payload a build has stored must decode, and re-encode, unchanged
// in any other build. The sparse cases go through linalg's dense→CSR
// compaction, so they pin that too.
func TestCodecBytesPinned(t *testing.T) {
	specials := []float64{
		0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff4_dead_beef_0001), math.Float64frombits(0xfff8_0000_0000_0bad),
		math.SmallestNonzeroFloat64, -0x1p-1030, math.MaxFloat64, 1 + 0x1p-52, math.Pi,
		0, 0, 0, 0, -2.5, 0, 7, 0, 0, 1e-300,
	}
	rng := rand.New(rand.NewSource(31))
	const stride = 41
	grid := make([]float64, 40*stride)
	for i := range grid {
		switch rng.Intn(4) {
		case 0:
			grid[i] = rng.NormFloat64()
		case 1:
			grid[i] = specials[rng.Intn(len(specials))]
		}
	}
	csr := func(data []float64, rows, cols, stride int) []byte {
		var s linalg.CSRTile
		s.SetDense(data, rows, cols, stride)
		return EncodeSparseTile(&s)
	}
	for _, c := range []struct {
		name string
		raw  []byte
		want string
	}{
		{"dense 1x1", EncodeTile(&linalg.Tile{Rows: 1, Cols: 1, Data: []float64{math.Pi}}), "f84845eb89f20f4b8502cbd855ce6640ba671fd536c60d246086b5131b78d29b"},
		{"dense specials 4x6", EncodeTile(&linalg.Tile{Rows: 4, Cols: 6, Data: specials}), "e612cfebb4194be77331f31143a4b2b086305f670b64fb9f09bcd2db89f0233c"},
		{"dense specials 1x24", EncodeTile(&linalg.Tile{Rows: 1, Cols: 24, Data: specials}), "ceca74d2d1822e683ebbab42e6dd3892d540e7df8817669e4a63bc05aef293bd"},
		{"dense region 37x29 stride 41", encodeDense(grid, 37, 29, stride), "61c1a5c31a243267b5c0c6515cb1d6c8a11f57572a731dee3b55f47e53123442"},
		{"dense region 7x11 at (3,5) stride 41", encodeDense(grid[3*stride+5:], 7, 11, stride), "ba9d604e0747d6c6e999b0af0b5aecbd558276b3caa2f640971e2299a4d57b88"},
		{"dense region 40x41 whole grid", encodeDense(grid, 40, stride, stride), "5a3dfe848e47da1b41640a6c870e76b04358ca6ce3e7535aac4f4d95aa073711"},
		{"sparse 1x1 empty", csr([]float64{0}, 1, 1, 1), "05966e487a973d0d4581087411bacf80a6aa8acbb611b7e7554ebe38a4ce9ede"},
		{"sparse 1x1", csr([]float64{-0.5}, 1, 1, 1), "8d63d170f4247220a287245e0cbf48cb8eae0d5410a48e2b58602d1fa05ac2e4"},
		{"sparse specials 4x6", csr(specials, 4, 6, 6), "8b5ddb4167d564fbcd3e893d9d06abc9bd3751ca626a165b42ef1f65513566c5"},
		{"sparse specials 24x1", csr(specials, 24, 1, 1), "4300f4bced64bc4f936ee532a3656c006a3a6a37db6a76d6dadeabbe975d2d82"},
		{"sparse region 37x29 stride 41", csr(grid, 37, 29, stride), "ee9827a4a7f70d987ebbeb092e9f91bb0ec8747f7b613c2782ca593cd30ec3ae"},
		{"sparse region 7x11 at (3,5) stride 41", csr(grid[3*stride+5:], 7, 11, stride), "ba33f31ca2bf020f88fa182a0ac15c4945fdf333ef51b62b93864acfd688bed5"},
		{"sparse region 40x41 whole grid", csr(grid, 40, stride, stride), "0fd7e7481807ea6e1be5d5f4e3ccda4cfd6f0a11c29309d2f6f0170bc3a119ed"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(c.raw)); got != c.want {
			t.Errorf("%s: sha256 %s, want %s", c.name, got, c.want)
		}
	}
}

// TestSaveDenseStoresTileEncodings: ingest encodes each tile straight from
// its region of the matrix; what lands in the DFS must be byte for byte
// the encoding of the extracted tile (fringes included), dense and sparse.
func TestSaveDenseStoresTileEncodings(t *testing.T) {
	d := linalg.RandomSparseDense(11, 9, 0.3, 5)
	d.Data[0] = 0 // an all-zero leading position
	for _, sparse := range []bool{false, true} {
		s := newStore(3)
		m := Meta{Name: "M", Rows: 11, Cols: 9, TileSize: 4, Sparse: sparse}
		if err := s.SaveDense(m, d, -1); err != nil {
			t.Fatal(err)
		}
		for ti := 0; ti < m.TileRows(); ti++ {
			for tj := 0; tj < m.TileCols(); tj++ {
				tile := d.TileAt(ti, tj, m.TileSize)
				want := EncodeTile(tile)
				if sparse {
					want = EncodeSparseTile(linalg.DenseToCSR(tile))
				}
				got, err := s.FS.PeekTile(m.Tile(ti, tj))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("sparse=%v tile (%d,%d): stored bytes differ from the tile's encoding", sparse, ti, tj)
				}
			}
		}
		back, err := s.LoadDense(m, -1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(EncodeTile(&linalg.Tile{Rows: 11, Cols: 9, Data: back.Data}), EncodeTile(&linalg.Tile{Rows: 11, Cols: 9, Data: d.Data})) {
			t.Fatalf("sparse=%v: LoadDense did not reproduce the matrix bit for bit", sparse)
		}
	}
}

// TestLoadDenseRejectsMisshapenTile: fetch decodes into a region of the
// output, so a stored tile whose shape disagrees with the meta must be an
// error, not a write outside the region.
func TestLoadDenseRejectsMisshapenTile(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		s := newStore(3)
		m := Meta{Name: "M", Rows: 6, Cols: 6, TileSize: 4, Sparse: sparse}
		if err := s.SaveDense(m, linalg.RandomDense(6, 6, 1), -1); err != nil {
			t.Fatal(err)
		}
		wrong := linalg.RandomDense(4, 4, 2).TileAt(0, 0, 4) // the fringe tile is 2x2
		raw := EncodeTile(wrong)
		if sparse {
			raw = EncodeSparseTile(linalg.DenseToCSR(wrong))
		}
		replaceTile(t, s.FS, m.Tile(1, 1), raw)
		if _, err := s.LoadDense(m, -1); err == nil {
			t.Fatalf("sparse=%v: LoadDense accepted a 4x4 tile where the meta says 2x2", sparse)
		}
	}
}
