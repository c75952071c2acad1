package dfs

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// The payload contract: Write and WritePlaced take ownership of the slice
// they are handed, reads return read-only views of it, and nothing the file
// system does later changes bytes a reader already holds.

func payload(n int) []byte {
	b := make([]byte, n, n+64) // spare capacity a careless append would scribble on
	for i := range b {
		b[i] = byte(i*7 + 3)
	}
	return b
}

func TestWriteOwnsPayloadAndReadsAreClippedViews(t *testing.T) {
	fs := New(DefaultConfig(4))
	data := payload(100)
	if err := fs.Write("/a", data, 1); err != nil {
		t.Fatal(err)
	}
	if err := fs.WritePlaced("/b", data, 0, [][]int{{2, 3}}); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/a", "/b"} {
		peeked, err := fs.Peek(path)
		if err != nil {
			t.Fatal(err)
		}
		read, sp, err := fs.readTracked(path, 0)
		if err != nil || sp.Total() != 100 {
			t.Fatalf("read: %v, split %+v", err, sp)
		}
		for name, got := range map[string][]byte{"Peek": peeked, "read": read} {
			if &got[0] != &data[0] {
				t.Errorf("%s(%s) copied a single-block file", name, path)
			}
			if len(got) != 100 || cap(got) != len(got) {
				t.Errorf("%s(%s): len %d cap %d, want a view clipped to 100", name, path, len(got), cap(got))
			}
		}
	}
}

func TestMultiBlockFileRoundTripsThroughEveryRead(t *testing.T) {
	fs := New(Config{Nodes: 4, Replication: 2, BlockSize: 16, Seed: 7})
	data := payload(100) // 7 blocks, the last one short
	want := append([]byte(nil), data...)
	if err := fs.Write("/big", data, 0); err != nil {
		t.Fatal(err)
	}
	reps, err := fs.BlockReplicas("/big")
	if err != nil || len(reps) != 7 {
		t.Fatalf("blocks: %d, %v", len(reps), err)
	}
	if err := fs.WritePlaced("/placed", data, 0, reps); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/big", "/placed"} {
		peeked, err := fs.Peek(path)
		if err != nil {
			t.Fatal(err)
		}
		read, _, err := fs.readTracked(path, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(peeked, want) || !bytes.Equal(read, want) {
			t.Fatalf("%s: multi-block round trip mismatch", path)
		}
		if cap(peeked) != len(peeked) || cap(read) != len(read) {
			t.Fatalf("%s: multi-block read has spare capacity", path)
		}
	}
}

// TestReplicaListsNeverAlias: a block's replica list — inline in its file's
// cell, or in an array of its own — is its alone. A caller may change a list
// it handed to WritePlaced or got from BlockReplicas, KillNode may rewrite
// the lists of the blocks it re-replicates, and later writes may place new
// ones, and no other block's placement moves.
func TestReplicaListsNeverAlias(t *testing.T) {
	fs := New(Config{Nodes: 8, Replication: 3, BlockSize: 64, Seed: 5, RackSize: 4})
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// placed holds every file's placement as of its own write (or of the
	// last re-replication); verify holds the file system to it, and every
	// stored list to a backing array of its own.
	placed := map[string][][]int{}
	wrote := func(path string, err error) {
		t.Helper()
		check(err)
		reps, err := fs.BlockReplicas(path)
		check(err)
		placed[path] = reps
	}
	verify := func(stage string) {
		t.Helper()
		owner := map[*int32]string{}
		for p, want := range placed {
			if got, err := fs.BlockReplicas(p); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s moved %s: %v, placed %v (%v)", stage, p, got, want, err)
			}
			c := fs.at(p).get()
			for b, blk := range c.spill() { // an inline list is in its cell

				arr := &blk.replicas[:1][0]
				if o, ok := owner[arr]; ok {
					t.Fatalf("%s left %s block %d storing its replica list in %s's array", stage, p, b, o)
				}
				owner[arr] = fmt.Sprintf("%s block %d", p, b)
			}
		}
	}
	writes := func(dir string) {
		for i := 0; i < 8; i++ {
			writer := i
			if !fs.NodeAlive(writer) {
				writer = -1
			}
			path := fmt.Sprintf("/%s/v%d", dir, i)
			wrote(path, fs.WriteVirtual(path, 40, writer))
			path = fmt.Sprintf("/%s/m%d", dir, i)
			wrote(path, fs.Write(path, payload(40+30*i), writer)) // from the third on, several blocks
		}
	}
	writes("a")
	list := []int{1, 5, 6}
	wrote("/p/0", fs.WritePlaced("/p/0", nil, 40, [][]int{list}))
	wrote("/p/1", fs.WritePlaced("/p/1", nil, 100, [][]int{list, list}))
	list[0] = 7
	writes("b")
	verify("writing other files, or changing a list handed to WritePlaced,")
	if got := placed["/p/1"]; !slices.Equal(got[0], []int{1, 5, 6}) || !slices.Equal(got[1], []int{1, 5, 6}) {
		t.Fatalf("WritePlaced kept the caller's list: %v", got)
	}
	held, err := fs.BlockReplicas("/a/v0")
	check(err)
	held[0][0] = 99
	verify("changing a list BlockReplicas returned")

	if rep := fs.KillNode(5); rep.ReplicasAdded == 0 {
		t.Fatal("killing node 5 re-replicated nothing; the test exercises nothing")
	}
	for p, reps := range placed {
		after, err := fs.BlockReplicas(p)
		check(err)
		for b, r := range reps {
			// A block keeps its surviving replicas, in order; one that had none
			// on node 5 keeps its list.
			kept := slices.DeleteFunc(slices.Clone(r), func(n int) bool { return n == 5 })
			if got := after[b]; len(kept) == len(r) && !slices.Equal(got, r) || !slices.Equal(got[:len(kept)], kept) {
				t.Fatalf("%s block %d: %v before killing node 5, %v after", p, b, r, got)
			}
		}
		placed[p] = after
	}
	writes("c")
	verify("writing after re-replication")
}

func TestHeldBytesSurviveFileSystemChanges(t *testing.T) {
	fs := New(Config{Nodes: 6, Replication: 3, BlockSize: 1 << 20, Seed: 3, RackSize: 2})
	shared := payload(4096)
	want := append([]byte(nil), shared...)
	// One slice stored under several paths, as the perf harness does.
	for i := 0; i < 8; i++ {
		if err := fs.Write(fmt.Sprintf("/t/%d", i), shared, i%6); err != nil {
			t.Fatal(err)
		}
	}
	held, err := fs.Peek("/t/0")
	if err != nil {
		t.Fatal(err)
	}
	reps, _ := fs.BlockReplicas("/t/0")
	if rep := fs.KillNode(reps[0][0]); rep.ReplicasAdded == 0 {
		t.Fatal("killing a replica holder re-replicated nothing; the test exercises nothing")
	}
	for i := 1; i < 8; i++ {
		fs.Delete(fmt.Sprintf("/t/%d", i))
	}
	fs.Reseed(99)
	if err := fs.Write("/t/new", payload(512), 1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(held, want) {
		t.Fatal("bytes held by a reader changed under re-replication, deletes and a reseed")
	}
	again, _, err := fs.readTracked("/t/0", 1)
	if err != nil || !bytes.Equal(again, want) {
		t.Fatalf("file content changed: %v", err)
	}
	// Even the file's own deletion leaves a held view intact.
	fs.Delete("/t/0")
	if !bytes.Equal(held, want) || !bytes.Equal(shared, want) {
		t.Fatal("deleting a file disturbed its payload")
	}
}
