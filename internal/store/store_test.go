package store

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"cumulon/internal/dfs"
	"cumulon/internal/linalg"
)

func newStore(nodes int) *Store {
	return New(dfs.New(dfs.DefaultConfig(nodes)))
}

func TestMetaGeometry(t *testing.T) {
	m := Meta{Name: "A", Rows: 10, Cols: 7, TileSize: 4}
	if m.TileRows() != 3 || m.TileCols() != 2 {
		t.Fatalf("grid %dx%d", m.TileRows(), m.TileCols())
	}
	r, c := m.TileShape(0, 0)
	if r != 4 || c != 4 {
		t.Fatalf("interior tile %dx%d", r, c)
	}
	r, c = m.TileShape(2, 1)
	if r != 2 || c != 3 {
		t.Fatalf("fringe tile %dx%d", r, c)
	}
}

// A tile's path is the DFS naming convention every listing and
// checkpoint manifest depends on; it is built by hand rather than with fmt,
// so the format is pinned here.
func TestTilePathFormat(t *testing.T) {
	long := "a-matrix-name-longer-than-the-sixty-four-byte-stack-buffer-of-TilePath~p12"
	cases := []struct {
		name   string
		ti, tj int
		want   string
	}{
		{"A", 0, 0, "/matrix/A/0_0"},
		{"H#3", 7, 12, "/matrix/H#3/7_12"},
		{"_tmp4~p1", 1048575, 123456789, "/matrix/_tmp4~p1/1048575_123456789"},
		{"V", -1, -20, "/matrix/V/-1_-20"},
		{"", 3, 4, "/matrix//3_4"},
		{long, 10, 2, "/matrix/" + long + "/10_2"},
	}
	for _, c := range cases {
		m := Meta{Name: c.name}
		if got := m.TilePath(c.ti, c.tj); got != c.want {
			t.Errorf("TilePath(%d, %d) of %q = %q, want %q", c.ti, c.tj, c.name, got, c.want)
		}
	}
	m := Meta{Name: "W#12"}
	if n := testing.AllocsPerRun(100, func() { tilePathSink = m.TilePath(31, 407) }); n > 1 {
		t.Errorf("Path allocates %v times per call, want at most 1", n)
	}
}

var tilePathSink string

func TestTileCodecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tile := linalg.NewTile(1+rng.Intn(16), 1+rng.Intn(16))
		for i := range tile.Data {
			tile.Data[i] = rng.NormFloat64()
		}
		got, err := DecodeTile(EncodeTile(tile))
		return err == nil && sameTile(got, tile)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSparseTileCodecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tile := linalg.NewTile(1+rng.Intn(16), 1+rng.Intn(16))
		for i := range tile.Data {
			if rng.Float64() < 0.3 {
				tile.Data[i] = rng.NormFloat64()
			}
		}
		s := linalg.DenseToCSR(tile)
		got, err := DecodeSparseTile(EncodeSparseTile(s))
		return err == nil && sameTile(got.ToDense(), tile)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeDetectsCorruption(t *testing.T) {
	tile := &linalg.Tile{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	raw := EncodeTile(tile)
	raw[14] ^= 0xFF // flip a payload bit
	if _, err := DecodeTile(raw); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

func TestDecodeDetectsTruncation(t *testing.T) {
	tile := &linalg.Tile{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	raw := EncodeTile(tile)
	if _, err := DecodeTile(raw[:len(raw)-5]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

func TestDecodeBadMagic(t *testing.T) {
	tile := &linalg.Tile{Rows: 1, Cols: 1, Data: []float64{1}}
	raw := EncodeTile(tile)
	raw[0] = 0
	if _, err := DecodeTile(raw); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
	s := EncodeSparseTile(linalg.DenseToCSR(tile))
	s[0] = 0
	if _, err := DecodeSparseTile(s); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
}

func TestDenseMagicRejectedBySparseDecoder(t *testing.T) {
	tile := &linalg.Tile{Rows: 1, Cols: 2, Data: []float64{1, 2}}
	if _, err := DecodeSparseTile(EncodeTile(tile)); err == nil {
		t.Fatal("sparse decoder accepted a dense tile")
	}
}

func TestSaveLoadDense(t *testing.T) {
	s := newStore(4)
	m := Meta{Name: "A", Rows: 23, Cols: 17, TileSize: 8}
	want := linalg.RandomDense(23, 17, 5)
	if err := s.SaveDense(m, want, -1); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadDense(m, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.AlmostEqual(want, 0) {
		t.Fatal("save/load round trip mismatch")
	}
	if len(s.FS.List("")) != m.TileRows()*m.TileCols() {
		t.Fatalf("tile count: %d", len(s.FS.List("")))
	}
}

func TestSaveLoadSparse(t *testing.T) {
	s := newStore(4)
	m := Meta{Name: "V", Rows: 30, Cols: 30, TileSize: 7, Sparse: true}
	want := linalg.RandomSparseDense(30, 30, 0.1, 5)
	if err := s.SaveDense(m, want, -1); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadDense(m, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.AlmostEqual(want, 0) {
		t.Fatal("sparse save/load round trip mismatch")
	}
}

func TestSaveShapeMismatch(t *testing.T) {
	s := newStore(2)
	m := Meta{Name: "A", Rows: 4, Cols: 4, TileSize: 2}
	if err := s.SaveDense(m, linalg.NewDense(3, 4), -1); err == nil {
		t.Fatal("want shape mismatch error")
	}
}

// replaceTile stores data as the tile at a in place of the one there: stored
// payloads are immutable, so a corrupt tile is a new file.
func replaceTile(t *testing.T, fs *dfs.FS, a dfs.TileAddr, data []byte) {
	t.Helper()
	b := fs.Batch()
	defer b.Done()
	b.Delete(a)
	if err := b.Write(a, data, -1); err != nil {
		t.Fatal(err)
	}
}

// A stored matrix's tiles are the one directory the file system drops by the
// matrix's name.
func TestDeleteMatrix(t *testing.T) {
	s := newStore(3)
	m := Meta{Name: "tmp", Rows: 8, Cols: 8, TileSize: 4}
	if err := s.SaveDense(m, linalg.RandomDense(8, 8, 1), -1); err != nil {
		t.Fatal(err)
	}
	s.FS.DeleteMatrix(m.Name)
	if len(s.FS.List("")) != 0 {
		t.Fatalf("tiles left after delete: %d", len(s.FS.List("")))
	}
}

// A tile of a declared matrix written by address reads back by address
// only: its path names an ordinary file, not the tile, and no other address
// holds it.
func TestReadWriteSingleTiles(t *testing.T) {
	s := newStore(3)
	m := Meta{Name: "B", Rows: 6, Cols: 6, TileSize: 3}
	tile := &linalg.Tile{Rows: 3, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}}
	b := s.FS.Batch()
	m.Declare(b)
	err := b.Write(m.Tile(1, 0), EncodeTile(tile), 2)
	raw, rerr := b.Read(m.Tile(1, 0), 0)
	_, missing := b.Read(m.Tile(0, 0), 0)
	b.Done()
	if err != nil || rerr != nil {
		t.Fatal(err, rerr)
	}
	if _, err := s.FS.Peek("/matrix/B/1_0"); !errors.Is(err, dfs.ErrNotFound) {
		t.Fatalf("the tile's path reads %v, want ErrNotFound", err)
	}
	if got, err := DecodeTile(raw); err != nil || !sameTile(got, tile) {
		t.Fatalf("tile mismatch (%v)", err)
	}
	// Tile coordinates are part of the name: other coords are missing.
	if !errors.Is(missing, dfs.ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", missing)
	}
}
