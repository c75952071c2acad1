package dfs

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// testMatrices numbers every matrix the dfs tests address tiles of, as a
// plan numbers its matrices: a name's number is its index. "W/sub" is the
// nested directory the tile-view tests drive: an address of it renders a
// path in W's directory tree like any other.
var testMatrices = []string{"m0", "m1", "m2", "m3", "d", "W", "W#1~p0", "WW", "X", "W/sub", "F", "G", "U"}

// testNum returns the number of a matrix of testMatrices.
func testNum(matrix string) int32 {
	for i, m := range testMatrices {
		if m == matrix {
			return int32(i)
		}
	}
	panic("dfs tests: no number for matrix " + matrix)
}

// testTile returns the address of tile (ti, tj) of a matrix of testMatrices.
func testTile(matrix string, ti, tj int32) TileAddr {
	return TileAddr{Matrix: testNum(matrix), TI: ti, TJ: tj}
}

// testPath renders the path of the tile at a, a's matrix one of
// testMatrices.
func testPath(a TileAddr) string { return TilePath(testMatrices[a.Matrix], a.TI, a.TJ) }

// bindTest binds every number of testMatrices in fs, as a run binds its
// plan's matrices once before its first tile operation; its forks inherit
// the binding.
func bindTest(fs *FS) *FS {
	b := fs.Batch()
	defer b.Done()
	for i, m := range testMatrices {
		b.Bind(int32(i), m)
	}
	return fs
}

// testAddr returns the address of a matrix of testMatrices whose rendered
// path is path, or nil.
func testAddr(path string) *TileAddr {
	d := dirOf(path)
	m, ok := strings.CutPrefix(d, MatrixRoot)
	var ti, tj int32
	if _, err := fmt.Sscanf(path[len(d):], "%d_%d", &ti, &tj); !ok || m == "" || err != nil {
		return nil
	}
	m = m[:len(m)-1]
	for i, name := range testMatrices {
		if a := (TileAddr{Matrix: int32(i), TI: ti, TJ: tj}); name == m && testPath(a) == path {
			return &a
		}
	}
	return nil // 01_2, 1_2x, 1_2_3 and unnumbered matrices: no address renders to these
}

// TestNumberSurvivesDropAndRedeclare: a matrix's number addresses whatever
// directory the matrix has now. Dropped, its tiles are gone and an address
// is the ordinary file at its path, in no directory; declared afresh at
// another grid, the same number writes into the new grid, and the dropped
// directory, which a reader may still hold, is left as it was.
func TestNumberSurvivesDropAndRedeclare(t *testing.T) {
	fs := New(Config{Nodes: 4, Replication: 2, Seed: 1})
	n := testNum("m1")
	b := fs.Batch()
	b.Declare(n, "m1", 2, 2)
	if err := b.WriteVirtual(TileAddr{Matrix: n, TI: 1, TJ: 1}, 30, 0); err != nil {
		t.Fatal(err)
	}
	b.Done()
	old := fs.dirs["/matrix/m1/"]
	fs.DeleteMatrix("m1")
	b = fs.Batch()
	if _, err := b.ReadAccount(TileAddr{Matrix: n, TI: 1, TJ: 1}, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("a tile of the dropped matrix reads %v, want ErrNotFound", err)
	}
	b.Declare(n, "m1", 3, 3)
	err := b.WriteVirtual(TileAddr{Matrix: n, TI: 2, TJ: 2}, 40, 1)
	size, _, ok := b.Placement(TileAddr{Matrix: n, TI: 2, TJ: 2})
	_, _, stale := b.Placement(TileAddr{Matrix: n, TI: 1, TJ: 1})
	b.Done()
	d := fs.dirs["/matrix/m1/"]
	switch {
	case err != nil || !ok || size != 40 || stale:
		t.Fatalf("by number after the drop: write %v, tile (2, 2) %v of %d bytes, the dropped tile (1, 1) %v", err, ok, size, stale)
	case d == old || len(d.cells) != 9 || d.nt != 1 || fs.tab[n].d != d:
		t.Fatalf("the number does not address the declared 3×3 grid holding one tile: %+v", d)
	case old.nt != 1 || len(old.cells) != 4:
		t.Fatalf("writing the new grid changed the dropped directory: %+v", old)
	}
}

// TestForkBindingsFollowTheirOwnCopies: a fork shares its source's
// directories and binding; whichever side writes a shared grid first, its
// number then addresses its own copy and the other side's the directory it
// had, so neither sees the other's tiles — and a drop on one side leaves
// the other's binding alone.
func TestForkBindingsFollowTheirOwnCopies(t *testing.T) {
	for _, forkWrites := range []bool{true, false} {
		src := New(Config{Nodes: 4, Replication: 2, Seed: 1})
		n := testNum("m2")
		b := src.Batch()
		b.Declare(n, "m2", 2, 2)
		err := b.WriteVirtual(TileAddr{Matrix: n}, 10, 0)
		b.Done()
		if err != nil {
			t.Fatal(err)
		}
		shared := src.dirs["/matrix/m2/"]
		fork := src.Fork(rand.New(rand.NewSource(2)))
		writer, other := src, fork
		if forkWrites {
			writer, other = fork, src
		}
		b = writer.Batch()
		err = b.WriteVirtual(TileAddr{Matrix: n, TI: 1, TJ: 1}, 20, 1)
		b.Done()
		if err != nil {
			t.Fatal(err)
		}
		switch w := writer.dirs["/matrix/m2/"]; {
		case w == shared || writer.tab[n].d != w:
			t.Fatalf("fork writes %v: the writer's number does not address its copy of the shared grid", forkWrites)
		case other.dirs["/matrix/m2/"] != shared || other.tab[n].d != shared:
			t.Fatalf("fork writes %v: the other side's number no longer addresses its own directory", forkWrites)
		case tileExists(other, TileAddr{Matrix: n, TI: 1, TJ: 1}) || !tileExists(writer, TileAddr{Matrix: n, TI: 1, TJ: 1}):
			t.Fatalf("fork writes %v: the tile written by number is not the writer's alone", forkWrites)
		}
		writer.DeleteMatrix("m2")
		if writer.tab[n].d != nil || other.tab[n].d != shared || !tileExists(other, TileAddr{Matrix: n}) {
			t.Fatalf("fork writes %v: dropping the writer's matrix changed the other side's binding", forkWrites)
		}
	}
}

// TestUndeclaredNumberIsTheFileAtItsPath: an address of a matrix bound but
// never declared is the ordinary file at its path, whichever call reaches
// it, and makes no grid; an address of a number never bound names nothing
// and panics.
func TestUndeclaredNumberIsTheFileAtItsPath(t *testing.T) {
	fs := New(Config{Nodes: 3, Replication: 2, Seed: 1})
	a := testTile("U", 2, 5)
	b := fs.Batch()
	b.Bind(a.Matrix, "U")
	err := b.Write(a, []byte("u"), 1)
	b.Done()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := fs.Peek("/matrix/U/2_5"); err != nil || string(got) != "u" {
		t.Fatalf("the file at /matrix/U/2_5 reads %q, %v", got, err)
	}
	if err := fs.WriteVirtual("/matrix/U/0_0", 10, 0); err != nil {
		t.Fatal(err)
	}
	b = fs.Batch()
	size, _, ok := b.Placement(TileAddr{Matrix: a.Matrix})
	b.Done()
	if !ok || size != 10 || fs.dirs["/matrix/U/"].cells != nil || fs.tab[a.Matrix].d != nil {
		t.Fatalf("tile (0, 0) of the undeclared U is not the file written at its path: %v %d, %+v", ok, size, fs.dirs["/matrix/U/"])
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "matrix number 99 is not bound") {
			t.Fatalf("an unbound number: %v", r)
		}
	}()
	b = fs.Batch()
	defer b.Done()
	b.FirstReplicaNode(TileAddr{Matrix: 99})
}
