package store

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"cumulon/internal/dfs"
	"cumulon/internal/linalg"
)

// ingested is everything an ingest and a fetch leave behind: the stored
// files with their bytes and block placement, the I/O counters, and the
// matrix read back.
type ingested struct {
	paths    []string
	payloads [][]byte
	replicas [][][]int
	stats    []dfs.IOStats // per node, then the cluster total
	back     *linalg.Dense
}

func ingestAndFetch(t *testing.T, budget int, m Meta, d *linalg.Dense) ingested {
	t.Helper()
	defer linalg.SetParallelism(linalg.SetParallelism(budget))
	// Small blocks and racks: a tile spans several blocks, each placed by
	// its own draws from the placement stream.
	const nodes = 6
	fs := dfs.New(dfs.Config{Nodes: nodes, Replication: 3, BlockSize: 96, Seed: 9, RackSize: 2})
	s := New(fs)
	if err := s.SaveDense(m, d, 1); err != nil {
		t.Fatal(err)
	}
	var got ingested
	var err error
	if got.back, err = s.LoadDense(m, 4); err != nil {
		t.Fatal(err)
	}
	b := fs.Batch()
	for ti := range m.TileRows() {
		for tj := range m.TileCols() {
			a := m.Tile(ti, tj)
			raw, err := b.Peek(a)
			if err != nil {
				t.Fatal(err)
			}
			_, reps, _ := b.Placement(a)
			got.paths = append(got.paths, a.Path())
			got.payloads, got.replicas = append(got.payloads, raw), append(got.replicas, reps)
		}
	}
	b.Done()
	for node := 0; node < nodes; node++ {
		got.stats = append(got.stats, fs.Stats(node))
	}
	got.stats = append(got.stats, fs.Stats(-1))
	return got
}

// TestParallelIngestMatchesOneToken: SaveDense encodes and LoadDense decodes
// on as many goroutines as the compute budget has idle, but writes, reads
// and their accounting stay in (ti, tj) order on the calling goroutine, so
// what lands in the DFS — paths, payload bytes, the placement of every
// block — and every read and write counter are those of a one-token run, on
// dense, sparse and ragged-edge matrices. CI runs this under -race.
func TestParallelIngestMatchesOneToken(t *testing.T) {
	for _, m := range []Meta{
		{Name: "D", Rows: 48, Cols: 40, TileSize: 8},
		{Name: "S", Rows: 48, Cols: 40, TileSize: 8, Sparse: true, Density: 0.2},
		{Name: "ragged", Rows: 37, Cols: 29, TileSize: 8},
		{Name: "ragged-sparse", Rows: 37, Cols: 29, TileSize: 8, Sparse: true, Density: 0.2},
		{Name: "one-tile", Rows: 5, Cols: 7, TileSize: 8},
	} {
		d := linalg.RandomDense(m.Rows, m.Cols, 3)
		if m.Sparse {
			d = linalg.RandomSparseDense(m.Rows, m.Cols, m.Density, 3)
		}
		want := ingestAndFetch(t, 1, m, d)
		if len(want.paths) != m.TileRows()*m.TileCols() || !reflect.DeepEqual(want.back.Data, d.Data) {
			t.Fatalf("%s: the one-token run stored %d tiles or read back another matrix", m.Name, len(want.paths))
		}
		for _, budget := range []int{2, 4, 8} {
			got := ingestAndFetch(t, budget, m, d)
			if !reflect.DeepEqual(got.paths, want.paths) {
				t.Errorf("%s, budget %d: stored paths differ", m.Name, budget)
			}
			for i := range want.payloads {
				if !bytes.Equal(got.payloads[i], want.payloads[i]) {
					t.Errorf("%s, budget %d: payload of %s differs", m.Name, budget, want.paths[i])
				}
			}
			if !reflect.DeepEqual(got.replicas, want.replicas) {
				t.Errorf("%s, budget %d: block placement differs", m.Name, budget)
			}
			if !reflect.DeepEqual(got.stats, want.stats) {
				t.Errorf("%s, budget %d: I/O counters differ:\n%v\n%v", m.Name, budget, got.stats, want.stats)
			}
			if !reflect.DeepEqual(got.back.Data, d.Data) {
				t.Errorf("%s, budget %d: LoadDense read back another matrix", m.Name, budget)
			}
		}
	}
}

// TestParallelLoadReportsFirstBadTile: with several tiles corrupt, LoadDense
// returns the error of the first in (ti, tj) order, whichever goroutine
// decoded which.
func TestParallelLoadReportsFirstBadTile(t *testing.T) {
	defer linalg.SetParallelism(linalg.SetParallelism(4))
	m := Meta{Name: "D", Rows: 32, Cols: 32, TileSize: 8}
	s := newStore(4)
	if err := s.SaveDense(m, linalg.RandomDense(32, 32, 1), -1); err != nil {
		t.Fatal(err)
	}
	// Tile (1,2) gets another tile's shape, tile (3,0) a flipped byte.
	for a, bad := range map[dfs.TileAddr][]byte{
		m.Tile(1, 2): EncodeTile(linalg.NewTile(3, 8)),
		m.Tile(3, 0): func() []byte {
			raw, _ := s.FS.PeekTile(m.Tile(3, 0))
			raw = append([]byte(nil), raw...)
			raw[20] ^= 1
			return raw
		}(),
	} {
		replaceTile(t, s.FS, a, bad)
	}
	for i := 0; i < 20; i++ {
		_, err := s.LoadDense(m, -1)
		if err == nil || errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "tile (1,2) is stored 3x8") {
			t.Fatalf("LoadDense returned %v, want the shape error of tile (1,2)", err)
		}
	}
}
