package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"cumulon/internal/linalg"
)

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
	into.Fill(-7)
	buf := &into.Data[0]
	if err := DecodeTileInto(into, raw); err != nil {
		t.Fatal(err)
	}
	if !into.Equal(fresh) || !fresh.Equal(src) {
		t.Fatal("dense decode-into differs from decode-fresh")
	}
	if &into.Data[0] != buf || len(into.Data) != 35 {
		t.Fatal("dense decode-into did not reuse the destination buffer")
	}
	small := linalg.NewTile(2, 2)
	if err := DecodeTileInto(small, raw); err != nil || !small.Equal(src) {
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
	if !intoSp.ToDense().Equal(src) {
		t.Fatal("sparse decode-into lost entries")
	}
	if n := testing.AllocsPerRun(20, func() { _ = DecodeSparseTileInto(intoSp, rawSparse) }); n != 0 {
		t.Errorf("sparse decode-into allocates %v times per call", n)
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
				got, err := s.FS.Peek(m.Tile(ti, tj).Path())
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
		if !bytes.Equal(EncodeTile(linalg.NewTileFrom(11, 9, back.Data)), EncodeTile(linalg.NewTileFrom(11, 9, d.Data))) {
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
		s.FS.Delete(m.Tile(1, 1).Path())
		wrong := linalg.RandomDense(4, 4, 2).TileAt(0, 0, 4) // the fringe tile is 2x2
		raw := EncodeTile(wrong)
		if sparse {
			raw = EncodeSparseTile(linalg.DenseToCSR(wrong))
		}
		if err := s.FS.Write(m.Tile(1, 1).Path(), raw, -1); err != nil {
			t.Fatal(err)
		}
		if _, err := s.LoadDense(m, -1); err == nil {
			t.Fatalf("sparse=%v: LoadDense accepted a 4x4 tile where the meta says 2x2", sparse)
		}
	}
}
