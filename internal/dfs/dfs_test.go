package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestWriteReadRoundTrip(t *testing.T) {
	fs := New(DefaultConfig(4))
	data := []byte("hello, cumulon")
	if err := fs.Write("/a", data, 0); err != nil {
		t.Fatal(err)
	}
	got, _, err := fs.readTracked("/a", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read mismatch: %q", got)
	}
	sz, err := fs.Size("/a")
	if err != nil || sz != int64(len(data)) {
		t.Fatalf("size %d err %v", sz, err)
	}
}

func TestWriteLocalFirstPlacement(t *testing.T) {
	fs := New(DefaultConfig(8))
	if err := fs.Write("/a", []byte("x"), 5); err != nil {
		t.Fatal(err)
	}
	nodes, err := replicaNodes(fs, "/a")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 3 {
		t.Fatalf("want 3 replicas, got %v", nodes)
	}
	if i := sort.SearchInts(nodes, 5); i == len(nodes) || nodes[i] != 5 {
		t.Fatalf("writer node must hold a replica, got %v", nodes)
	}
}

func TestReplicationClampedToClusterSize(t *testing.T) {
	fs := New(Config{Nodes: 2, Replication: 3, Seed: 1})
	if fs.Replication() != 2 {
		t.Fatalf("replication should clamp to 2, got %d", fs.Replication())
	}
	if err := fs.Write("/a", []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	nodes, _ := replicaNodes(fs, "/a")
	if len(nodes) != 2 {
		t.Fatalf("want 2 replicas, got %v", nodes)
	}
}

func TestLocalVsRemoteAccounting(t *testing.T) {
	fs := New(Config{Nodes: 4, Replication: 1, Seed: 1})
	data := make([]byte, 1000)
	if err := fs.Write("/a", data, 2); err != nil {
		t.Fatal(err)
	}
	if _, sp, err := fs.readTracked("/a", 2); err != nil || sp != (ReadSplit{Local: 1000}) {
		t.Fatalf("read by the holder: %+v, err %v", sp, err)
	}
	if _, sp, err := fs.readTracked("/a", 3); err != nil || sp != (ReadSplit{Remote: 1000}) {
		t.Fatalf("read by another node: %+v, err %v", sp, err)
	}
}

func TestDuplicateWriteFails(t *testing.T) {
	fs := New(DefaultConfig(3))
	if err := fs.Write("/a", []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("/a", []byte("y"), 0); !errors.Is(err, ErrExists) {
		t.Fatalf("want ErrExists, got %v", err)
	}
}

func TestReadMissing(t *testing.T) {
	fs := New(DefaultConfig(3))
	if _, _, err := fs.readTracked("/nope", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestDeleteIdempotent(t *testing.T) {
	fs := New(DefaultConfig(3))
	if err := fs.Write("/a", []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	fs.Delete("/a")
	fs.Delete("/a")
	if exists(fs, "/a") {
		t.Fatal("file still exists after delete")
	}
}

func TestList(t *testing.T) {
	fs := New(DefaultConfig(3))
	for _, p := range []string{"/m/1", "/m/2", "/n/1"} {
		if err := fs.Write(p, []byte("x"), 0); err != nil {
			t.Fatal(err)
		}
	}
	got := fs.List("/m/")
	if len(got) != 2 || got[0] != "/m/1" || got[1] != "/m/2" {
		t.Fatalf("list: %v", got)
	}
}

func TestKillNodeReReplicates(t *testing.T) {
	fs := New(Config{Nodes: 5, Replication: 2, Seed: 3})
	if err := fs.Write("/a", []byte("payload"), 1); err != nil {
		t.Fatal(err)
	}
	before, _ := replicaNodes(fs, "/a")
	fs.KillNode(before[0])
	after, err := replicaNodes(fs, "/a")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 2 {
		t.Fatalf("want 2 live replicas after recovery, got %v", after)
	}
	for _, n := range after {
		if n == before[0] {
			t.Fatal("dead node still listed as replica")
		}
	}
	if _, _, err := fs.readTracked("/a", 4); err != nil {
		t.Fatalf("read after recovery: %v", err)
	}
}

func TestAllReplicasDeadUnavailable(t *testing.T) {
	fs := New(Config{Nodes: 3, Replication: 1, Seed: 1})
	if err := fs.Write("/a", []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	nodes, _ := replicaNodes(fs, "/a")
	// Kill every node so re-replication has no live target.
	for n := 0; n < 3; n++ {
		_ = nodes
		fs.KillNode(n)
	}
	if fs.NodeAlive(0) {
		t.Fatal("node 0 should be dead")
	}
	// Reading from any node fails: reader nodes themselves are dead, and
	// an external client sees no live replicas.
	if _, _, err := fs.readTracked("/a", -1); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("want ErrUnavailable, got %v", err)
	}
}

func TestDeadWriterRejected(t *testing.T) {
	fs := New(DefaultConfig(3))
	fs.KillNode(1)
	if err := fs.Write("/a", []byte("x"), 1); !errors.Is(err, ErrDeadNode) {
		t.Fatalf("want ErrDeadNode, got %v", err)
	}
	if err := fs.Write("/b", []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
}

func TestMultiBlockFiles(t *testing.T) {
	fs := New(Config{Nodes: 4, Replication: 2, BlockSize: 10, Seed: 7})
	data := make([]byte, 35)
	for i := range data {
		data[i] = byte(i)
	}
	if err := fs.Write("/big", data, 0); err != nil {
		t.Fatal(err)
	}
	got, _, err := fs.readTracked("/big", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("multi-block round trip mismatch")
	}
}

func TestEmptyFile(t *testing.T) {
	fs := New(DefaultConfig(3))
	if err := fs.Write("/empty", nil, 0); err != nil {
		t.Fatal(err)
	}
	got, _, err := fs.readTracked("/empty", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty file read %d bytes", len(got))
	}
}

// Property: whatever is written is read back identically, from any node.
func TestRoundTripProperty(t *testing.T) {
	fs := New(DefaultConfig(6))
	i := 0
	f := func(data []byte, reader uint8) bool {
		i++
		path := fmt.Sprintf("/p/%d", i)
		if err := fs.Write(path, data, int(reader)%6); err != nil {
			return false
		}
		got, _, err := fs.readTracked(path, (int(reader)+1)%6)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	fs := New(DefaultConfig(8))
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 20; i++ {
				p := fmt.Sprintf("/c/%d/%d", g, i)
				data := make([]byte, rng.Intn(100)+1)
				if err := fs.Write(p, data, g); err != nil {
					errs <- err
					return
				}
				if _, _, err := fs.readTracked(p, (g+i)%8); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if len(fs.List("")) != 160 {
		t.Fatalf("file count: %d", len(fs.List("")))
	}
}

func TestVirtualFiles(t *testing.T) {
	fs := New(Config{Nodes: 4, Replication: 2, BlockSize: 100, Seed: 1})
	if err := fs.WriteVirtual("/v", 250, 1); err != nil {
		t.Fatal(err)
	}
	sz, err := fs.Size("/v")
	if err != nil || sz != 250 {
		t.Fatalf("size %d err %v", sz, err)
	}
	if _, _, err := fs.readTracked("/v", 0); !errors.Is(err, ErrVirtual) {
		t.Fatalf("want ErrVirtual, got %v", err)
	}
	sp, err := fs.ReadAccount("/v", 1)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Total() != 250 {
		t.Fatalf("accounted %d bytes", sp.Total())
	}
	// Writer-local placement means node 1 holds every block.
	if sp.Local != 250 {
		t.Fatalf("writer node should read locally: %+v", sp)
	}
	if _, err := fs.ReadAccount("/missing", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestReadAccountOnRealFiles(t *testing.T) {
	fs := New(Config{Nodes: 3, Replication: 1, Seed: 2})
	if err := fs.Write("/r", make([]byte, 500), 0); err != nil {
		t.Fatal(err)
	}
	sp, err := fs.ReadAccount("/r", 2)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Remote != 500 {
		t.Fatalf("remote bytes: %+v", sp)
	}
}

func TestVirtualKillNodeReReplicates(t *testing.T) {
	fs := New(Config{Nodes: 4, Replication: 2, Seed: 5})
	if err := fs.WriteVirtual("/v", 1000, 0); err != nil {
		t.Fatal(err)
	}
	fs.KillNode(0)
	nodes, err := replicaNodes(fs, "/v")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 {
		t.Fatalf("replicas after recovery: %v", nodes)
	}
	if _, err := fs.ReadAccount("/v", 1); err != nil {
		t.Fatal(err)
	}
}

func TestRackTopology(t *testing.T) {
	fs := New(Config{Nodes: 8, Replication: 3, RackSize: 4, Seed: 1})
	if fs.RackOf(3) != 0 || fs.RackOf(4) != 1 || fs.RackOf(-1) != 0 {
		t.Fatal("rack assignment wrong")
	}
	single := New(Config{Nodes: 4, Replication: 2, Seed: 1})
	if single.RackOf(3) != 0 {
		t.Fatal("single-rack cluster misconfigured")
	}
}

func TestRackAwarePlacement(t *testing.T) {
	fs := New(Config{Nodes: 8, Replication: 3, RackSize: 4, Seed: 2})
	// HDFS policy: replica 1 on the writer, replica 2 on another rack,
	// replica 3 on replica 2's rack. Check over many files.
	for i := 0; i < 50; i++ {
		path := fmt.Sprintf("/r/%d", i)
		if err := fs.WriteVirtual(path, 100, 1); err != nil {
			t.Fatal(err)
		}
		nodes, err := replicaNodes(fs, path)
		if err != nil || len(nodes) != 3 {
			t.Fatalf("replicas: %v err %v", nodes, err)
		}
		racks := map[int]int{}
		for _, n := range nodes {
			racks[fs.RackOf(n)]++
		}
		if len(racks) != 2 {
			t.Fatalf("file %d: replicas span %d racks (want exactly 2): %v", i, len(racks), nodes)
		}
	}
}

func TestRackLocalReadClassification(t *testing.T) {
	fs := New(Config{Nodes: 8, Replication: 1, RackSize: 4, Seed: 3})
	if err := fs.WriteVirtual("/a", 1000, 0); err != nil {
		t.Fatal(err)
	}
	// Node 0 holds the only replica: node 0 reads locally, node 1 (same
	// rack) rack-locally, node 5 (other rack) remotely.
	sp, err := fs.ReadAccount("/a", 0)
	if err != nil || sp.Local != 1000 {
		t.Fatalf("node 0: %+v err %v", sp, err)
	}
	sp, err = fs.ReadAccount("/a", 1)
	if err != nil || sp.RackLocal != 1000 || sp.Remote != 0 {
		t.Fatalf("node 1: %+v err %v", sp, err)
	}
	sp, err = fs.ReadAccount("/a", 5)
	if err != nil || sp.Remote != 1000 || sp.RackLocal != 0 {
		t.Fatalf("node 5: %+v err %v", sp, err)
	}
}

func TestSingleRackHasNoRackLocalReads(t *testing.T) {
	fs := New(Config{Nodes: 4, Replication: 1, Seed: 4})
	if err := fs.WriteVirtual("/a", 100, 0); err != nil {
		t.Fatal(err)
	}
	sp, err := fs.ReadAccount("/a", 2)
	if err != nil {
		t.Fatal(err)
	}
	if sp.RackLocal != 0 || sp.Remote != 100 {
		t.Fatalf("single-rack split: %+v", sp)
	}
}

func TestExternalWriterPastClusterTreatedAsClient(t *testing.T) {
	fs := New(Config{Nodes: 4, Replication: 2, Seed: 6})
	// A writer node at or past Nodes is an external client, not a crash.
	if err := fs.Write("/ext", make([]byte, 100), 9); err != nil {
		t.Fatal(err)
	}
	nodes, err := replicaNodes(fs, "/ext")
	if err != nil || len(nodes) != 2 {
		t.Fatalf("replicas: %v err %v", nodes, err)
	}
	for _, n := range nodes {
		if n < 0 || n >= 4 {
			t.Fatalf("replica on nonexistent node %d", n)
		}
	}
	if err := fs.WriteVirtual("/extv", 100, 100); err != nil {
		t.Fatal(err)
	}
	if got, _, err := fs.readTracked("/ext", 1); err != nil || len(got) != 100 {
		t.Fatalf("read: %d bytes, err %v", len(got), err)
	}
}

// A reader id at or past Nodes is an external client, exactly like a writer
// id there: its bytes are remote.
func TestExternalReaderPastClusterTreatedAsClient(t *testing.T) {
	for _, rackSize := range []int{0, 2} {
		fs := New(Config{Nodes: 4, Replication: 2, Seed: 6, RackSize: rackSize})
		if err := fs.Write("/real", make([]byte, 100), 1); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteVirtual("/virt", 40, 2); err != nil {
			t.Fatal(err)
		}
		sp, err := fs.ReadAccount("/virt", 4)
		if err != nil || sp != (ReadSplit{Remote: 40}) {
			t.Fatalf("ReadAccount by node 4 of 4: %+v, err %v", sp, err)
		}
		data, sp, err := fs.readTracked("/real", 100)
		if err != nil || len(data) != 100 || sp != (ReadSplit{Remote: 100}) {
			t.Fatalf("read by node 100 of 4: %d bytes, %+v, err %v", len(data), sp, err)
		}
	}
}

// FirstReplicaNode is ReplicaNodes(path)[0], through kills and for missing
// and unavailable files.
func TestFirstReplicaNodeMatchesReplicaNodes(t *testing.T) {
	fs := New(Config{Nodes: 6, Replication: 2, BlockSize: 32, Seed: 4})
	tile := func(i int) TileAddr { return TileAddr{Matrix: 0, TI: int32(i)} }
	path := func(i int) string { return TilePath("f", int32(i), 0) }
	b := fs.Batch()
	b.Bind(0, "f") // never declared: its addresses are the ordinary files at their paths
	b.Done()
	for i := 0; i < 20; i++ {
		if err := fs.WriteVirtual(path(i), int64(20+i*9), i%6); err != nil {
			t.Fatal(err)
		}
	}
	check := func() {
		t.Helper()
		for i := 0; i < 21; i++ { // tile 20 does not exist
			want := -1
			if nodes, err := replicaNodes(fs, path(i)); err == nil && len(nodes) > 0 {
				want = nodes[0]
			}
			b := fs.Batch()
			got := b.FirstReplicaNode(tile(i))
			b.Done()
			if got != want {
				t.Fatalf("FirstReplicaNode(%v) = %d, ReplicaNodes gives %d", tile(i), got, want)
			}
		}
	}
	check()
	fs.KillNode(0)
	check()
	fs.MarkDead(1) // no re-replication: some files lose their only live copy
	fs.MarkDead(2)
	check()
}

func TestKillNodeReport(t *testing.T) {
	fs := New(Config{Nodes: 6, Replication: 2, Seed: 8})
	const size = 1000
	if err := fs.WriteVirtual("/a", size, 1); err != nil {
		t.Fatal(err)
	}
	nodes, _ := replicaNodes(fs, "/a")
	rep := fs.KillNode(nodes[0])
	if rep.BlocksRecovered != 1 || rep.ReplicasAdded != 1 || rep.BytesMoved != size {
		t.Fatalf("report: %+v", rep)
	}
	if rep.BlocksLost != 0 {
		t.Fatalf("no block should be lost: %+v", rep)
	}
	// Killing an already-dead or out-of-range node is a no-op.
	if rep := fs.KillNode(nodes[0]); rep != (RecoveryReport{}) {
		t.Fatalf("double kill: %+v", rep)
	}
	if rep := fs.KillNode(99); rep != (RecoveryReport{}) {
		t.Fatalf("kill out of range: %+v", rep)
	}
}

func TestKillNodeRackAwareRecovery(t *testing.T) {
	// Replication 2 on 2 racks: after recovery each block's replicas must
	// span both racks again (policy: second replica off the first's rack),
	// and recovery targets must spread rather than pile onto one node.
	fs := New(Config{Nodes: 8, Replication: 2, RackSize: 4, Seed: 9})
	for i := 0; i < 40; i++ {
		if err := fs.WriteVirtual(fmt.Sprintf("/r/%d", i), 100, 2); err != nil {
			t.Fatal(err)
		}
	}
	rep := fs.KillNode(2)
	if rep.BlocksRecovered == 0 || rep.BytesMoved == 0 {
		t.Fatalf("expected recovery work: %+v", rep)
	}
	targets := map[int]int{}
	for i := 0; i < 40; i++ {
		nodes, err := replicaNodes(fs, fmt.Sprintf("/r/%d", i))
		if err != nil || len(nodes) != 2 {
			t.Fatalf("file %d replicas: %v err %v", i, nodes, err)
		}
		racks := map[int]bool{}
		for _, n := range nodes {
			racks[fs.RackOf(n)] = true
			targets[n]++
		}
		if len(racks) != 2 {
			t.Fatalf("file %d: recovered replicas on one rack: %v", i, nodes)
		}
	}
	// With 40 blocks and 7 live candidates, an unbiased policy cannot put
	// every recovered replica on the single lowest-numbered live node.
	if targets[0] == 80-40 && len(targets) <= 3 {
		t.Fatalf("recovery piled onto low node ids: %v", targets)
	}
}

func TestKillNodeLostBlocksCounted(t *testing.T) {
	fs := New(Config{Nodes: 3, Replication: 1, Seed: 10})
	if err := fs.WriteVirtual("/only", 500, 1); err != nil {
		t.Fatal(err)
	}
	rep := fs.KillNode(1)
	if rep.BlocksLost != 1 || rep.BlocksRecovered != 0 || rep.BytesMoved != 0 {
		t.Fatalf("report: %+v", rep)
	}
}

// readTracked reads path as readerNode sees it, with the read accounted:
// the path-keyed face of Batch.Read, which production reads tiles through.
func (fs *FS) readTracked(path string, readerNode int) ([]byte, ReadSplit, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.read(fs.at(path), readerNode)
}

// The path-keyed faces of the tile-keyed calls nothing in production makes
// by path: the tests drive ordinary files through them.

// Size returns the byte size of the file.
func (fs *FS) Size(path string) (int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	c := fs.at(path).get()
	if c.vacant() {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return c.size, nil
}

// BlockReplicas returns the replica node lists of the file's blocks, in
// block order (live and dead replicas alike).
func (fs *FS) BlockReplicas(path string) ([][]int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	c := fs.at(path).get()
	if c.vacant() {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return c.replicaLists(), nil
}

// Delete removes a file; deleting a missing file is not an error.
func (fs *FS) Delete(path string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.drop(fs.at(path))
}

// WritePlaced is Batch.WritePlaced of the file at path.
func (fs *FS) WritePlaced(path string, data []byte, size int64, replicas [][]int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.writePlaced(fs.at(path), data, size, replicas)
}

// TestNodeIDsPastSixteenBits: a cell holds replica ids of up to 16 bits; a
// file with a replica past them spills, and reads, locates and recovers as
// any other.
func TestNodeIDsPastSixteenBits(t *testing.T) {
	top := 1<<16 + 7
	fs := New(Config{Nodes: top + 1, Replication: 3, Seed: 1})
	if err := fs.WriteVirtual("/matrix/m/0_0", 10, top); err != nil {
		t.Fatal(err)
	}
	if err := fs.WritePlaced("/matrix/m/0_1", nil, 10, [][]int{{top, 1}}); err != nil {
		t.Fatal(err)
	}
	if reps, err := fs.BlockReplicas("/matrix/m/0_0"); err != nil || len(reps[0]) != 3 || reps[0][0] != top {
		t.Fatalf("written from node %d: %v, %v", top, reps, err)
	}
	if sp, err := fs.ReadAccount("/matrix/m/0_1", top); err != nil || sp.Local != 10 {
		t.Fatalf("read on node %d: %+v, %v", top, sp, err)
	}
	fs.KillNode(top)
	reps, err := fs.BlockReplicas("/matrix/m/0_1")
	if err != nil || len(reps[0]) != 3 || reps[0][0] != 1 || slices.Contains(reps[0], top) {
		t.Fatalf("after node %d died: %v, %v", top, reps, err)
	}
	b := fs.Batch()
	defer b.Done()
	b.Bind(0, "m")
	if n := b.FirstReplicaNode(TileAddr{Matrix: 0, TJ: 1}); n != slices.Min(reps[0]) {
		t.Fatalf("FirstReplicaNode %d, replicas %v", n, reps[0])
	}
}
