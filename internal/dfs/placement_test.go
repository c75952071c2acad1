package dfs

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite the golden files under testdata/ from the current code")

// placementScript drives one file system through every operation that
// draws from the placement random stream, and dumps BlockReplicas of every
// file after each stage. The dump is a pure function of (Config, script): any change to how
// many random draws a placement makes, over which slice lengths, or in
// which order shows up as a different replica list further down.
func placementScript(cfg Config) []byte {
	var out bytes.Buffer
	fs := New(cfg)
	n := cfg.Nodes
	check := func(op string, err error) {
		if err != nil {
			fmt.Fprintf(&out, "  %s: %v\n", op, err)
		}
	}
	state := func() []byte {
		var b bytes.Buffer
		for _, p := range fs.List("") {
			reps, err := fs.BlockReplicas(p)
			check("replicas "+p, err)
			fmt.Fprintf(&b, "  %s %v\n", p, reps)
		}
		return b.Bytes()
	}
	// Intermediate stages are recorded as a digest of the full state, the
	// last one in full, which keeps the golden file small.
	dump := func(stage string) {
		fmt.Fprintf(&out, "-- %s: sha256 %x\n", stage, sha256.Sum256(state()))
	}
	payload := func(size int) []byte {
		b := make([]byte, size)
		for i := range b {
			b[i] = byte(i)
		}
		return b
	}
	// writes issues a batch of real and virtual, single- and multi-block
	// writes from internal writers, an external client and a stale node id.
	writes := func(tag string) {
		for i := 0; i < 6; i++ {
			writer := (i * 5) % n
			check("write", fs.Write(fmt.Sprintf("/%s/real%d", tag, i), payload(40+i*37), writer))
			check("writev", fs.WriteVirtual(fmt.Sprintf("/%s/virt%d", tag, i), int64(i*50), writer))
		}
		check("write", fs.Write("/"+tag+"/ext", payload(130), -1))
		check("writev", fs.WriteVirtual("/"+tag+"/extv", 300, -1))
		check("writev", fs.WriteVirtual("/"+tag+"/stale", 70, n+3))
	}
	reads := func(tag string) {
		for i := 0; i < 6; i++ {
			for _, reader := range []int{i % n, (i + 3) % n, -1} {
				_, err := fs.ReadAccount(fmt.Sprintf("/%s/virt%d", tag, i), reader)
				check("read", err)
				_, _, err = fs.readTracked(fmt.Sprintf("/%s/real%d", tag, i), reader)
				check("readt", err)
			}
		}
	}

	writes("a")
	reads("a")
	dump("fresh writes")

	fmt.Fprintf(&out, "  kill %+v\n", fs.KillNode(2%n))
	writes("b")
	reads("a")
	dump("after KillNode")

	fs.MarkDead(5 % n)
	writes("c")
	reads("b")
	dump("after MarkDead")

	fs.Reseed(cfg.Seed*31 + 5)
	writes("d")
	dump("after Reseed")

	check("placed", fs.WritePlaced("/e/placed", payload(100), 0, [][]int{{0, 1 % n}, {n - 1}}))
	check("placed", fs.WritePlaced("/e/placedv", nil, 64, [][]int{{n - 1, 0}}))
	writes("e")
	reads("e")
	fmt.Fprintf(&out, "  kill %+v\n", fs.KillNode(0))
	if n > 4 { // the 4-node cluster is down to one live node already
		fmt.Fprintf(&out, "  kill %+v\n", fs.KillNode(n-1))
	}
	writes("f")
	dump("after WritePlaced and more kills")
	out.Write(state())
	return out.Bytes()
}

// TestPlacementStreamGolden holds the placement random stream to a golden
// recorded from the code before the allocation-free rewrite (commit fb76c50),
// re-recorded without its byte-counter lines when the file system stopped
// keeping counters: single-rack and racked clusters, a cluster smaller than
// its replication factor, three seeds each.
func TestPlacementStreamGolden(t *testing.T) {
	var got bytes.Buffer
	for _, seed := range []int64{1, 7, 42} {
		for _, cfg := range []Config{
			{Nodes: 8, Replication: 3, BlockSize: 64, Seed: seed},
			{Nodes: 12, Replication: 3, BlockSize: 64, Seed: seed, RackSize: 4},
			{Nodes: 7, Replication: 4, BlockSize: 64, Seed: seed, RackSize: 2},
			{Nodes: 4, Replication: 5, BlockSize: 64, Seed: seed},
		} {
			fmt.Fprintf(&got, "== %+v\n", cfg)
			got.Write(placementScript(cfg))
		}
	}
	checkGolden(t, "placement_golden.txt", got.Bytes())
}

// checkGolden compares got with testdata/name, or rewrites the file under
// -update-golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("%s: drifted from golden at line %d:\n got  %s\n want %s", name, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: drifted from golden: %d lines now vs %d recorded", name, len(gl), len(wl))
	}
}

// TestPlacementAllocations bounds what the hot accounting calls allocate:
// reads and the locality lookup nothing, before and after a node dies, and a
// single-block write — Write or WriteVirtual, of a tile of a declared matrix
// or of another file — into an existing directory nothing whatever the
// cluster size: the file is a cell held by value in its directory's grid or
// map, whose growth averages below one allocation a write.
func TestPlacementAllocations(t *testing.T) {
	const runs = 500
	payload := make([]byte, 100)
	writeAllocs := func(nodes int, virtual, tile bool) float64 {
		fs := New(Config{Nodes: nodes, Replication: 3, Seed: 1, RackSize: 4})
		b := fs.Batch()
		b.Declare(0, "w", (runs+32)/32, 32) // AllocsPerRun makes one warm-up call
		b.Done()
		paths := make([]string, runs+1)
		for i := range paths {
			paths[i] = fmt.Sprintf("/w/%d", i)
		}
		i := 0
		return testing.AllocsPerRun(runs, func() {
			var err error
			switch a := (TileAddr{Matrix: 0, TI: int32(i / 32), TJ: int32(i % 32)}); {
			case tile:
				b := fs.Batch()
				if virtual {
					err = b.WriteVirtual(a, 100, i%nodes)
				} else {
					err = b.Write(a, payload, i%nodes)
				}
				b.Done()
			case virtual:
				err = fs.WriteVirtual(paths[i], 100, i%nodes)
			default:
				err = fs.Write(paths[i], payload, i%nodes)
			}
			if err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
	for _, virtual := range []bool{true, false} {
		for _, tile := range []bool{true, false} {
			if small, large := writeAllocs(4, virtual, tile), writeAllocs(64, virtual, tile); small != 0 || large != 0 {
				t.Errorf("single-block write (virtual %v, tile %v): %v allocs on 4 nodes, %v on 64; want 0", virtual, tile, small, large)
			}
		}
	}

	fs := New(Config{Nodes: 8, Replication: 3, BlockSize: 64, Seed: 1, RackSize: 4})
	if err := fs.WriteVirtual("/multi", 300, 2); err != nil {
		t.Fatal(err)
	}
	b := fs.Batch()
	b.Declare(0, "multi", 1, 2)
	for tj, size := range []int64{300, 50} {
		if err := b.WriteVirtual(TileAddr{Matrix: 0, TJ: int32(tj)}, size, 2); err != nil {
			t.Fatal(err)
		}
	}
	b.Done()
	for _, stage := range []string{"with no dead node", "after KillNode"} {
		if stage == "after KillNode" && fs.KillNode(2).ReplicasAdded == 0 {
			t.Fatal("killing the writer re-replicated nothing; the test exercises nothing")
		}
		if n := testing.AllocsPerRun(runs, func() {
			if _, err := fs.ReadAccount("/multi", 5); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("ReadAccount allocates %v times per call %s", n, stage)
		}
		b := fs.Batch()
		if n := testing.AllocsPerRun(runs, func() {
			for tj := int32(0); tj < 2; tj++ {
				a := TileAddr{Matrix: 0, TJ: tj}
				if b.FirstReplicaNode(a) < 0 {
					t.Fatal("no replica")
				}
				if _, err := b.ReadAccount(a, 5); err != nil {
					t.Fatal(err)
				}
			}
		}); n != 0 {
			t.Errorf("FirstReplicaNode and ReadAccount by address allocate %v times per call %s", n, stage)
		}
		b.Done()
	}
}

// TestDeclaredGridWritesAllocateNothing: once a matrix is declared, writing
// every tile of its grid, in a random order and through both write calls,
// allocates nothing and grows nothing: the grid holds exactly rows × cols
// cells before and after.
func TestDeclaredGridWritesAllocateNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	payload := make([]byte, 100)
	for _, g := range []struct{ rows, cols int }{{1, 1}, {7, 5}, {3, 40}, {64, 64}} {
		fs := New(Config{Nodes: 8, Replication: 3, Seed: 1, RackSize: 4})
		addrs := make([]TileAddr, 0, g.rows*g.cols)
		for ti := range g.rows {
			for tj := range g.cols {
				addrs = append(addrs, TileAddr{Matrix: 0, TI: int32(ti), TJ: int32(tj)})
			}
		}
		rand.New(rand.NewSource(int64(len(addrs)))).Shuffle(len(addrs), func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
		b := fs.Batch()
		b.Declare(0, "m", g.rows, g.cols)
		d := fs.dirs["/matrix/m/"]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i, a := range addrs {
			var err error
			if i%2 == 0 {
				err = b.WriteVirtual(a, 100, i%8)
			} else {
				err = b.Write(a, payload, i%8)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		b.Done()
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Errorf("%dx%d: writing the declared grid allocated %d times", g.rows, g.cols, n)
		}
		if fs.dirs["/matrix/m/"] != d || len(d.cells) != len(addrs) || cap(d.cells) != len(addrs) || int(d.nt) != len(addrs) || int(d.cols) != g.cols {
			t.Errorf("%dx%d: %d tiles in %d cells (capacity %d) of %d columns; want %d in exactly as many",
				g.rows, g.cols, d.nt, len(d.cells), cap(d.cells), d.cols, len(addrs))
		}
	}
}
