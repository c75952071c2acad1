package dfs

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite the golden files under testdata/ from the current code")

// placementScript drives one file system through every operation that
// draws from the placement random stream or moves a byte counter, and
// dumps BlockReplicas of every file plus every node's Stats after each
// stage. The dump is a pure function of (Config, script): any change to how
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
		for node := -1; node < n; node++ {
			fmt.Fprintf(&b, "  stats[%d] %+v\n", node, fs.Stats(node))
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

// TestPlacementStreamGolden holds the placement random stream and the byte
// accounting to a golden recorded from the code before the allocation-free
// rewrite (commit fb76c50): single-rack and racked clusters, a cluster
// smaller than its replication factor, three seeds each.
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
// reads and the locality lookup nothing while no node is dead, a
// single-block virtual write into an existing directory one allocation
// whatever the cluster size: its file, which holds the block and its
// replica list (the map's growth averages below one).
func TestPlacementAllocations(t *testing.T) {
	const runs = 500
	payload := make([]byte, 100)
	writeAllocs := func(nodes int, virtual bool) float64 {
		fs := New(Config{Nodes: nodes, Replication: 3, Seed: 1, RackSize: 4})
		paths := make([]string, runs+1) // AllocsPerRun makes one warm-up call
		for i := range paths {
			paths[i] = fmt.Sprintf("/w/%d", i)
		}
		i := 0
		return testing.AllocsPerRun(runs, func() {
			var err error
			if virtual {
				err = fs.WriteVirtual(paths[i], 100, i%nodes)
			} else {
				err = fs.Write(paths[i], payload, i%nodes)
			}
			if err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
	for _, virtual := range []bool{true, false} {
		if small, large := writeAllocs(4, virtual), writeAllocs(64, virtual); small != 1 || large != 1 {
			t.Errorf("single-block write (virtual %v): %v allocs on 4 nodes, %v on 64; want 1", virtual, small, large)
		}
	}

	fs := New(Config{Nodes: 8, Replication: 3, BlockSize: 64, Seed: 1, RackSize: 4})
	if err := fs.WriteVirtual("/multi", 300, 2); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(runs, func() {
		if _, err := fs.ReadAccount("/multi", 5); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ReadAccount allocates %v times per call with no dead node", n)
	}
	if err := fs.WriteVirtual("/matrix/multi/0_0", 300, 2); err != nil {
		t.Fatal(err)
	}
	b := fs.Batch()
	defer b.Done()
	if n := testing.AllocsPerRun(runs, func() {
		if b.FirstReplicaNode(TileAddr{Matrix: "multi"}) < 0 {
			t.Fatal("no replica")
		}
		if _, err := b.ReadAccount(TileAddr{Matrix: "multi"}, 5); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("FirstReplicaNode and ReadAccount by address allocate %v times per call", n)
	}
}
