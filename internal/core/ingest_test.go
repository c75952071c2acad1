package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"cumulon/internal/dfs"
	"cumulon/internal/lang"
	"cumulon/internal/plan"
	"cumulon/internal/store"
)

// TestSeededIngestMatchesWholeMatrix holds the seeded ingest a materialized
// run with nil Inputs makes to SaveDense of RandomInputs' whole matrices, on
// twin file systems: every tile's payload and replica lists, and how far
// each placement stream has drawn. Small blocks give a tile several, so
// placement draws many times per tile. Densities outside (0, 1] take the
// 0.05 rule on both sides.
func TestSeededIngestMatchesWholeMatrix(t *testing.T) {
	shapes := []struct{ rows, cols, tile int }{
		{45, 29, 16},   // ragged on both edges
		{256, 192, 64}, // cumulond's materialized GNMF
		{10, 7, 16},    // one tile
		{1, 50, 16},    // one row
	}
	dcfg := dfs.Config{Nodes: 5, Replication: 3, BlockSize: 512, RackSize: 2}
	for _, sh := range shapes {
		for _, density := range []float64{0.2, 1, 0, -1, 1.5} {
			t.Run(fmt.Sprintf("%dx%d/tile=%d/density=%g", sh.rows, sh.cols, sh.tile, density), func(t *testing.T) {
				prog, err := lang.Parse(fmt.Sprintf("input X %d %d\ninput V %d %d sparse\nY = X + V\noutput Y\n",
					sh.rows, sh.cols, sh.rows, sh.cols))
				if err != nil {
					t.Fatal(err)
				}
				cfg := plan.Config{TileSize: sh.tile, Densities: map[string]float64{"V": density}}
				pl, err := plan.Compile(prog, cfg)
				if err != nil {
					t.Fatal(err)
				}
				const seed = 11
				whole := RandomInputs(prog, cfg, seed)
				ra, rb := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
				fa, fb := dfs.NewOn(dcfg, ra), dfs.NewOn(dcfg, rb)
				for i, in := range pl.Inputs {
					if err := store.New(fa).SaveDense(in, whole[in.Name], -1); err != nil {
						t.Fatal(err)
					}
					g := inputRows(i, in.Sparse, in.Density, seed)
					err := store.New(fb).SaveRows(in, g.Fill, -1)
					g.Close()
					if err != nil {
						t.Fatal(err)
					}
				}
				ba, bb := fa.Batch(), fb.Batch()
				defer ba.Done()
				defer bb.Done()
				for _, in := range pl.Inputs {
					for ti := range in.TileRows() {
						for tj := range in.TileCols() {
							a := in.Tile(ti, tj)
							pa, err := ba.Peek(a)
							if err != nil {
								t.Fatal(err)
							}
							pb, err := bb.Peek(a)
							if err != nil {
								t.Fatal(err)
							}
							if !bytes.Equal(pa, pb) {
								t.Fatalf("%s tile (%d,%d): the seeded ingest stored other bytes", in.Name, ti, tj)
							}
							_, repA, _ := ba.Placement(a)
							_, repB, _ := bb.Placement(a)
							if !reflect.DeepEqual(repA, repB) {
								t.Fatalf("%s tile (%d,%d): replicas %v, the whole matrix's %v", in.Name, ti, tj, repB, repA)
							}
						}
					}
				}
				if a, b := ra.Int63(), rb.Int63(); a != b {
					t.Fatal("the placement streams stand at different positions")
				}
			})
		}
	}
}

// TestSeededIngestHoldsATileRow: ingesting cumulond's materialized GNMF's V
// (256×192, density 0.2, tile 64) allocates less than the matrix would take
// whole: what it keeps is the stored payloads, and it draws into one pooled
// tile row.
func TestSeededIngestHoldsATileRow(t *testing.T) {
	prog, err := lang.Parse("input V 256 192 sparse\nW = V\noutput W\n")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.Compile(prog, plan.Config{TileSize: 64, Densities: map[string]float64{"V": 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	v := pl.Inputs[0]
	const runs = 8
	stores := make([]*store.Store, runs+1)
	for i := range stores {
		stores[i] = store.New(dfs.New(dfs.Config{Nodes: 2, Seed: 1}))
	}
	ingest := func(st *store.Store) {
		g := inputRows(0, v.Sparse, v.Density, 7)
		defer g.Close()
		if err := st.SaveRows(v, g.Fill, -1); err != nil {
			t.Fatal(err)
		}
	}
	ingest(stores[runs]) // fills the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, st := range stores[:runs] {
		ingest(st)
	}
	runtime.ReadMemStats(&after)
	got := int64(after.TotalAlloc-before.TotalAlloc) / runs
	if whole := int64(v.Rows * v.Cols * 8); got >= whole {
		t.Fatalf("ingesting V allocates %d B, as much as the whole %d B matrix", got, whole)
	}
	t.Logf("ingesting V allocates %d B", got)
}
