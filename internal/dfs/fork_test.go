package dfs

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

var forkConfigs = []Config{
	{Nodes: 4, Replication: 3, BlockSize: 64, Seed: 3},
	{Nodes: 8, Replication: 3, BlockSize: 64, Seed: 11, RackSize: 4},
}

// countingSource counts the values drawn from a math/rand source; each
// Int63 or Uint64 advances rand.NewSource's stream by one.
type countingSource struct {
	rand.Source64
	n int
}

func (c *countingSource) Int63() int64   { c.n++; return c.Source64.Int63() }
func (c *countingSource) Uint64() uint64 { c.n++; return c.Source64.Uint64() }

// streamAt returns a generator on seed's stream after n draws.
func streamAt(seed int64, n int) *rand.Rand {
	src := rand.NewSource(seed)
	for i := 0; i < n; i++ {
		src.Int63()
	}
	return rand.New(src)
}

// forkLoad writes a batch of real and virtual, single- and multi-block files
// under tag from internal writers and an external client, in a few
// directories.
func forkLoad(t testing.TB, fs *FS, tag string) {
	for i := 0; i < 24; i++ {
		path := fmt.Sprintf("/%s/m%d/%d_0", tag, i%4, i)
		writer := i % (fs.cfg.Nodes + 1)
		if writer == fs.cfg.Nodes || !fs.NodeAlive(writer) {
			writer = -1
		}
		var err error
		switch {
		case tag == "matrix":
			// Tile (i, 0) of one of four matrices declared 24 × 1.
			m := fmt.Sprintf("m%d", i%4)
			a := testTile(m, int32(i), 0)
			b := fs.Batch()
			b.Declare(a.Matrix, m, 24, 1)
			if i%2 == 0 {
				err = b.Write(a, make([]byte, 20+i*9), writer)
			} else {
				err = b.WriteVirtual(a, int64(30+i*11), writer)
			}
			b.Done()
		case i%2 == 0:
			err = fs.Write(path, make([]byte, 20+i*9), writer)
		default:
			err = fs.WriteVirtual(path, int64(30+i*11), writer)
		}
		if err != nil {
			t.Errorf("write %s: %v", path, err)
		}
	}
}

// loaded returns a file system of cfg with forkLoad's "matrix" batch on it —
// four matrices, m0 to m3 — and how many values placing it drew from the
// placement stream.
func loaded(t testing.TB, cfg Config) (*FS, int) {
	src := &countingSource{Source64: rand.NewSource(cfg.Seed).(rand.Source64)}
	fs := NewOn(cfg, rand.New(src))
	forkLoad(t, fs, "matrix")
	return fs, src.n
}

// firstReplicaNode is the lowest-numbered live node holding a replica of
// the file at path, or -1.
func firstReplicaNode(fs *FS, path string) int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.firstReplica(fs.at(path).get())
}

// replicaNodes returns the live nodes that hold at least one block replica
// of the file at path, in ascending order: the oracle of FirstReplicaNode.
func replicaNodes(fs *FS, path string) ([]int, error) {
	reps, err := fs.BlockReplicas(path)
	set := map[int]bool{}
	for _, rs := range reps {
		for _, r := range rs {
			set[r] = set[r] || fs.NodeAlive(r)
		}
	}
	var nodes []int
	for n, live := range set {
		if live {
			nodes = append(nodes, n)
		}
	}
	sort.Ints(nodes)
	return nodes, err
}

// exists reports whether an ordinary file is stored at path.
func exists(fs *FS, path string) bool {
	_, err := fs.Size(path)
	return err == nil
}

// tileExists reports whether a tile is stored at a.
func tileExists(fs *FS, a TileAddr) bool {
	b := fs.Batch()
	defer b.Done()
	_, _, ok := b.Placement(a)
	return ok
}

// forkView is everything a file system reports about its files and nodes,
// tiles and ordinary files alike: the file count, each file's size, block
// replicas and first live replica node in path order, and every node's
// liveness.
func forkView(fs *FS) string {
	var b strings.Builder
	fs.mu.Lock()
	files := fs.sorted("")
	fmt.Fprintf(&b, "%d files\n", len(files))
	for _, s := range files {
		c := s.get()
		fmt.Fprintf(&b, "%s %d %v first %d\n", s.path, c.size, c.replicaLists(), fs.firstReplica(c))
	}
	fs.mu.Unlock()
	for n := 0; n < fs.cfg.Nodes; n++ {
		fmt.Fprintf(&b, "node %d alive %v\n", n, fs.NodeAlive(n))
	}
	return b.String()
}

// TestForkMatchesSource: a fork reports exactly what its source does.
func TestForkMatchesSource(t *testing.T) {
	for _, cfg := range forkConfigs {
		src, _ := loaded(t, cfg)
		src.KillNode(1)
		if got, want := forkView(src.Fork(nil)), forkView(src); got != want {
			t.Fatalf("%+v: fork\n%s\nsource\n%s", cfg, got, want)
		}
	}
}

// TestForkPlacesLaterWritesAlike: given a stream at the position the
// source's has reached, a fork places every later write — and re-replicates
// after a node death — exactly as the source does, and as a file system that
// was never forked does.
func TestForkPlacesLaterWritesAlike(t *testing.T) {
	later := func(fs *FS) {
		forkLoad(t, fs, "out")
		fs.KillNode(2)
		forkLoad(t, fs, "after")
	}
	for _, cfg := range forkConfigs {
		src, drawn := loaded(t, cfg)
		fork := src.Fork(streamAt(cfg.Seed, drawn))
		never := New(cfg)
		forkLoad(t, never, "matrix")
		for _, fs := range []*FS{src, fork, never} {
			later(fs)
		}
		want := forkView(never)
		if got := forkView(src); got != want {
			t.Fatalf("%+v: the forked source diverges from a never-forked file system\n%s\nwant\n%s", cfg, got, want)
		}
		if got := forkView(fork); got != want {
			t.Fatalf("%+v: the fork diverges from a never-forked file system\n%s\nwant\n%s", cfg, got, want)
		}
	}
}

// TestForkIsolation: no operation on either side of a fork changes anything
// the other side reports — KillNode least of all, since it rewrites the
// replica lists of files the two share — and when both sides change the
// directories they share, each ends as a copy only it changed does.
func TestForkIsolation(t *testing.T) {
	ops := []struct {
		name string
		do   func(fs *FS) error
	}{
		{"KillNode", func(fs *FS) error { fs.KillNode(0); return nil }},
		{"WritePlaced", func(fs *FS) error { return fs.WritePlaced("/matrix/m0/new", nil, 100, [][]int{{1}, {2, 3}}) }},
		{"Write", func(fs *FS) error { return fs.Write("/matrix/m1/new", make([]byte, 90), 1) }},
		{"Write tile", func(fs *FS) error {
			b := fs.Batch()
			defer b.Done()
			return b.Write(testTile("m1", 3, 0), make([]byte, 40), 2)
		}},
		{"WriteVirtual off the grid", func(fs *FS) error {
			b := fs.Batch()
			defer b.Done()
			return b.WriteVirtual(testTile("m3", 21, 1), 30, 3)
		}},
		{"Delete m2's tile", func(fs *FS) error {
			b := fs.Batch()
			defer b.Done()
			b.Delete(testTile("m2", 2, 0))
			return nil
		}},
		{"Delete m0's tile", func(fs *FS) error {
			b := fs.Batch()
			defer b.Done()
			b.Delete(testTile("m0", 4, 0))
			return nil
		}},
		{"DeletePrefix", func(fs *FS) error { fs.DeletePrefix("/matrix/m3/"); fs.DeletePrefix("/matrix/m1/1"); return nil }},
		{"DeleteMatrix", func(fs *FS) error { fs.DeleteMatrix("m2"); return nil }},
		{"Declare and write", func(fs *FS) error { return declareAndWrite(fs, "d") }},
		{"Declare shared and write", func(fs *FS) error { return declareAndWrite(fs, "m1") }},
	}
	for _, cfg := range forkConfigs {
		for _, op := range ops {
			for _, onFork := range []bool{false, true} {
				src, _ := loaded(t, cfg)
				fork := src.Fork(rand.New(rand.NewSource(1)))
				changed, other := src, fork
				if onFork {
					changed, other = fork, src
				}
				before, was := forkView(other), forkView(changed)
				if err := op.do(changed); err != nil {
					t.Fatal(err)
				}
				if forkView(changed) == was {
					t.Fatalf("%+v: %s changed nothing", cfg, op.name)
				}
				if after := forkView(other); after != before {
					t.Fatalf("%+v: %s on the %s changed the other side\nbefore\n%s\nafter\n%s",
						cfg, op.name, map[bool]string{false: "source", true: "fork"}[onFork], before, after)
				}
			}
		}
		// Both sides: the source runs one op, then the fork the next, then the
		// source the one after; each is held to a copy that ran its own alone.
		for i := range ops {
			mine, theirs, again := ops[i], ops[(i+1)%len(ops)], ops[(i+2)%len(ops)]
			src, _ := loaded(t, cfg)
			fork := src.Fork(rand.New(rand.NewSource(1)))
			srcAlone, _ := loaded(t, cfg)
			forkSrc, _ := loaded(t, cfg)
			forkAlone := forkSrc.Fork(rand.New(rand.NewSource(1)))
			for _, step := range []struct {
				op  func(*FS) error
				fss []*FS
			}{{mine.do, []*FS{src, srcAlone}}, {theirs.do, []*FS{fork, forkAlone}}, {again.do, []*FS{src, srcAlone}}} {
				for _, fs := range step.fss {
					if err := step.op(fs); err != nil {
						t.Fatal(err)
					}
				}
			}
			if got, want := forkView(src), forkView(srcAlone); got != want {
				t.Fatalf("%+v: %s, %s on the fork, %s: the source\n%s\nwant\n%s", cfg, mine.name, theirs.name, again.name, got, want)
			}
			if got, want := forkView(fork), forkView(forkAlone); got != want {
				t.Fatalf("%+v: %s, %s on the fork, %s: the fork\n%s\nwant\n%s", cfg, mine.name, theirs.name, again.name, got, want)
			}
		}
	}
}

// declareAndWrite declares the matrix at a 3×2 grid and writes its tile
// (2, 1) by address.
func declareAndWrite(fs *FS, matrix string) error {
	b := fs.Batch()
	defer b.Done()
	b.Declare(testNum(matrix), matrix, 3, 2)
	return b.WriteVirtual(testTile(matrix, 2, 1), 60, 1)
}

// TestForkSharesDeclaredDirectory: a fork shares a declared directory, files
// or none, as it does any other; declaring it again on either side changes
// nothing; the first write into it copies it, grid and all, so the write
// grows nothing and the other side still holds no file there; and dropping
// it on one side leaves the other's.
func TestForkSharesDeclaredDirectory(t *testing.T) {
	for _, cfg := range forkConfigs {
		src, _ := loaded(t, cfg)
		m0 := src.dirs["/matrix/m0/"]
		cells := len(m0.cells)
		b := src.Batch()
		b.Declare(testNum("d"), "d", 3, 4)
		b.Declare(testNum("m0"), "m0", 9, 9)
		b.Done()
		declared := src.dirs["/matrix/d/"]
		if declared == nil || len(declared.cells) != 12 || declared.len() != 0 {
			t.Fatalf("%+v: declaring a new matrix made %+v", cfg, declared)
		}
		if src.dirs["/matrix/m0/"] != m0 || len(m0.cells) != cells {
			t.Fatalf("%+v: declaring the existing m0 changed its directory", cfg)
		}
		fork := src.Fork(rand.New(rand.NewSource(1)))
		for _, fs := range []*FS{fork, src} {
			b := fs.Batch()
			b.Declare(testNum("d"), "d", 5, 5)
			b.Done()
			if fs.dirs["/matrix/d/"] != declared || !declared.shared {
				t.Fatalf("%+v: the declared directory is not the one both sides share", cfg)
			}
		}
		before := forkView(src)
		b = fork.Batch()
		err := b.WriteVirtual(testTile("d", 2, 3), 70, 2)
		b.Done()
		if err != nil {
			t.Fatal(err)
		}
		if d := fork.dirs["/matrix/d/"]; d == declared || len(d.cells) != 12 || d.cols != declared.cols {
			t.Fatalf("%+v: writing the shared declared directory on the fork did not copy its grid alone", cfg)
		}
		if forkView(src) != before || declared.len() != 0 || len(declared.cells) != 12 {
			t.Fatalf("%+v: writing the fork's declared directory changed the source", cfg)
		}
		src.DeleteMatrix("d")
		if src.dirs["/matrix/d/"] != nil || !tileExists(fork, testTile("d", 2, 3)) {
			t.Fatalf("%+v: dropping the source's declared directory dropped the fork's", cfg)
		}
	}
}

// TestForksConcurrent drives two forks of one file system from two
// goroutines — writes, reads, deletes and node deaths, on shared files and
// new ones — and requires each to end exactly as a fork of a file system of
// its own, driven alone, does. CI runs it under -race, ten times over.
func TestForksConcurrent(t *testing.T) {
	script := func(fs *FS, g int) {
		for round := 0; round < 3; round++ {
			forkLoad(t, fs, fmt.Sprintf("g%d-%d", g, round))
			b := fs.Batch()
			for _, s := range fs.sorted(MatrixRoot) {
				if _, err := b.ReadAccount(*testAddr(s.path), round); err != nil && round == 0 {
					t.Errorf("read %s: %v", s.path, err)
				}
			}
			b.Done()
			fs.KillNode((g + round) % fs.cfg.Nodes)
			b = fs.Batch()
			b.Delete(testTile(fmt.Sprintf("m%d", g), int32(4+g), 0))
			b.Done()
			fs.DeletePrefix(fmt.Sprintf("/g%d-%d/m1/", g, round))
			fs.DeleteMatrix(fmt.Sprintf("m%d", (g+round)%4))
		}
	}
	for _, cfg := range forkConfigs {
		src, drawn := loaded(t, cfg)
		var together [2]string
		var wg sync.WaitGroup
		for g := range together {
			fs := src.Fork(streamAt(cfg.Seed, drawn))
			wg.Add(1)
			go func() {
				defer wg.Done()
				script(fs, g)
				together[g] = forkView(fs)
			}()
		}
		wg.Wait()
		for g := range together {
			own, drawn := loaded(t, cfg)
			fs := own.Fork(streamAt(cfg.Seed, drawn))
			script(fs, g)
			if forkView(fs) != together[g] {
				t.Fatalf("%+v: fork %d driven concurrently ends differently from one driven alone", cfg, g)
			}
		}
		if fresh, _ := loaded(t, cfg); forkView(src) != forkView(fresh) {
			t.Fatalf("%+v: driving the forks changed their source", cfg)
		}
	}
}
