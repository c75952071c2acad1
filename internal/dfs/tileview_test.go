package dfs

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// The tile-view tests hold the two faces of one namespace to each other. A
// subject file system takes every operation through the path-keyed calls or,
// where the name is a tile address, the tile-keyed ones, by turn. Its twin
// takes the same operations through the path-keyed calls on the path with a
// NUL byte appended: a name no canonical tile has, that sorts wherever the
// path does. So the twin holds every file as an ordinary one, and it must
// report exactly what the subject does — the same files in the same order,
// sizes, replica lists, counters, errors and recovery reports.
var (
	tvDirs = []string{"/matrix/W/", "/matrix/W#1~p0/", "/matrix/WW/", "/matrix/W/sub/", "/w/", ""}
	tvBase = []string{
		"0_0", "1_2", "2_1", "1_10", "10_1", "10_0", "1_0", "12_3", "4095_0", "4096_1",
		"01_2", "1_2x", "1_2_3", "-1_0", "1_", "_1", "C",
	}
	tvPref = []string{
		"", "/", "/matrix/", "/matrix/W", "/matrix/W/", "/matrix/W/1", "/matrix/W/1_1", "/matrix/W/10",
		"/matrix/W/0", "/matrix/W#", "/matrix/W/sub/", "/matrix/WW/1_", "/w/", "1", "1_2",
	}
	tvMatrices = []string{"W", "W#1~p0", "WW", "X"}
)

// tvAddr returns the tile address whose rendering path is, or nil.
func tvAddr(path string) *TileAddr {
	d := dirOf(path)
	m, ok := strings.CutPrefix(d, MatrixRoot)
	var ti, tj int
	if _, err := fmt.Sscanf(path[len(d):], "%d_%d", &ti, &tj); !ok || m == "" || err != nil {
		return nil
	}
	m = m[:len(m)-1]
	if a := (TileAddr{Matrix: m, TI: int32(ti), TJ: int32(tj)}); a.Path() == path {
		return &a
	}
	return nil // 01_2, 1_2x, 1_2_3: no address renders to these
}

// tvDriver applies random operations to a subject and its twin.
type tvDriver struct {
	t    testing.TB
	rng  *rand.Rand
	s, w *FS
	step int
	log  []string
}

// fail reports a failure and ends the goroutine driving d, which may be one
// the test started.
func (d *tvDriver) fail(format string, args ...any) {
	d.t.Helper()
	d.t.Errorf("step %d: %s\nhistory:\n%s", d.step, fmt.Sprintf(format, args...), strings.Join(d.log, "\n"))
	runtime.Goexit()
}

// same requires the two errors to be both nil or both the same sentinel.
func (d *tvDriver) same(op string, es, ew error) {
	d.t.Helper()
	for _, sentinel := range []error{nil, ErrNotFound, ErrExists, ErrUnavailable, ErrDeadNode, ErrVirtual} {
		if sentinel == nil && es == nil && ew == nil || sentinel != nil && errors.Is(es, sentinel) && errors.Is(ew, sentinel) {
			return
		}
	}
	d.fail("%s: subject %v, twin %v", op, es, ew)
}

// do applies one random operation.
func (d *tvDriver) do() {
	d.t.Helper()
	d.step++
	rng := d.rng
	path := tvDirs[rng.Intn(len(tvDirs))] + tvBase[rng.Intn(len(tvBase))]
	a := tvAddr(path)
	byTile := a != nil && rng.Intn(2) == 0
	twin := path + "\x00"
	node := rng.Intn(d.s.cfg.Nodes+1) - 1
	var op string
	switch k := rng.Intn(21); {
	case k == 20:
		// The subject alone: its twin holds every file in a map, so the two
		// agree only while a declared directory stays out of sight.
		name := tvMatrices[rng.Intn(len(tvMatrices))]
		rows, cols := 1+rng.Intn(13), 1+rng.Intn(13)
		if rng.Intn(6) == 0 {
			cols = maxGrid + 1
		}
		op = fmt.Sprintf("Declare %q %dx%d", name, rows, cols)
		d.declare(name, rows, cols)
	case k < 4:
		data := []byte(path)
		op = fmt.Sprintf("Write %q tile=%v node %d", path, byTile, node)
		var es error
		if byTile {
			b := d.s.Batch()
			es = b.Write(*a, data, node)
			b.Done()
		} else {
			es = d.s.Write(path, data, node)
		}
		d.same(op, es, d.w.Write(twin, data, node))
	case k < 8:
		size := int64(rng.Intn(200))
		op = fmt.Sprintf("WriteVirtual %q %d tile=%v node %d", path, size, byTile, node)
		var es error
		if byTile {
			b := d.s.Batch()
			es = b.WriteVirtual(*a, size, node)
			b.Done()
		} else {
			es = d.s.WriteVirtual(path, size, node)
		}
		d.same(op, es, d.w.WriteVirtual(twin, size, node))
	case k < 10:
		reps := [][]int{{rng.Intn(d.s.cfg.Nodes)}, {rng.Intn(d.s.cfg.Nodes), rng.Intn(d.s.cfg.Nodes)}}
		op = fmt.Sprintf("WritePlaced %q %v", path, reps)
		d.same(op, d.s.WritePlaced(path, nil, 70, reps), d.w.WritePlaced(twin, nil, 70, reps))
	case k < 13:
		op = fmt.Sprintf("Delete %q tile=%v", path, byTile)
		if byTile {
			b := d.s.Batch()
			b.Delete(*a)
			b.Done()
		} else {
			d.s.Delete(path)
		}
		d.w.Delete(twin)
	case k < 14 && rng.Intn(2) == 0:
		prefix := tvPref[rng.Intn(len(tvPref))]
		op = fmt.Sprintf("DeletePrefix %q", prefix)
		d.s.DeletePrefix(prefix)
		d.w.DeletePrefix(prefix)
	case k < 14:
		// The twin's files are in the subject's directories.
		name := tvMatrices[rng.Intn(len(tvMatrices))]
		op = fmt.Sprintf("DeleteMatrix %q", name)
		d.s.DeleteMatrix(name)
		d.w.DeleteMatrix(name)
	case k < 18:
		op = fmt.Sprintf("read %q tile=%v node %d", path, byTile, node)
		var ss ReadSplit
		var data []byte
		var es, er error
		if byTile {
			b := d.s.Batch()
			ss, es = b.ReadAccount(*a, node)
			data, er = b.Read(*a, node)
			b.Done()
		} else {
			ss, es = d.s.ReadAccount(path, node)
			data, _, er = d.s.readTracked(path, node)
		}
		sw, ew := d.w.ReadAccount(twin, node)
		dw, _, erw := d.w.readTracked(twin, node)
		d.same(op+" ReadAccount", es, ew)
		d.same(op+" Read", er, erw)
		if ss != sw || string(data) != string(dw) {
			d.fail("%s: subject %+v %q, twin %+v %q", op, ss, data, sw, dw)
		}
	default:
		n := rng.Intn(d.s.cfg.Nodes)
		op = fmt.Sprintf("KillNode %d", n)
		if live := d.s.live; len(live) > d.s.cfg.Nodes/2 {
			if rs, rw := d.s.KillNode(n), d.w.KillNode(n); rs != rw {
				d.fail("%s: subject %+v, twin %+v", op, rs, rw)
			}
		}
	}
	d.log = append(d.log, op)
	d.check()
}

// declare declares a matrix on the subject and requires the directory it
// finds to be left alone — the same one, its grid and its files unchanged —
// and the one it makes to hold exactly the declared grid and no file.
func (d *tvDriver) declare(name string, rows, cols int) {
	d.t.Helper()
	path := MatrixRoot + name + "/"
	held := d.s.dirs[path]
	var was dir
	if held != nil {
		was = *held
	}
	b := d.s.Batch()
	b.Declare(name, rows, cols)
	b.Done()
	got := d.s.dirs[path]
	switch {
	case held != nil && (got != held || len(got.cells) != len(was.cells) || len(got.rows) != len(was.rows) ||
		got.nt != was.nt || len(got.files) != len(was.files) || got.shared != was.shared):
		d.fail("Declare %q %dx%d changed the existing directory", name, rows, cols)
	case held == nil && cols > maxGrid && got != nil:
		d.fail("Declare %q %dx%d past the grid made a directory", name, rows, cols)
	case held == nil && cols <= maxGrid && (got == nil || len(got.cells) != rows*cols || len(got.rows) != rows || got.len() != 0):
		d.fail("Declare %q %dx%d made %+v", name, rows, cols, got)
	}
}

// churnTiles changes the first matrix directory that holds a tile, on
// subject and twin alike: a tile written by address and one by path into
// vacant cells of that tile's row, the tile deleted, a live node killed and
// the matrix dropped.
func (d *tvDriver) churnTiles() {
	d.t.Helper()
	var a *TileAddr
	for _, p := range d.s.List(MatrixRoot) {
		if a = tvAddr(p); a != nil {
			break
		}
	}
	if a == nil {
		d.fail("no matrix directory holds a tile")
	}
	vacant := func() TileAddr {
		c := *a
		for exists(d.s, c.Path()) {
			c.TJ++
		}
		return c
	}
	d.log = append(d.log, fmt.Sprintf("churn %+v", *a))
	w := vacant()
	b := d.s.Batch()
	es := b.WriteVirtual(w, 40, -1)
	b.Done()
	d.same("churn WriteVirtual", es, d.w.WriteVirtual(w.Path()+"\x00", 40, -1))
	p := vacant().Path()
	d.same("churn Write", d.s.Write(p, []byte(p), -1), d.w.Write(p+"\x00", []byte(p), -1))
	b = d.s.Batch()
	b.Delete(*a)
	b.Done()
	d.w.Delete(a.Path() + "\x00")
	if len(d.s.live) > 1 {
		n := d.s.live[0]
		if rs, rw := d.s.KillNode(n), d.w.KillNode(n); rs != rw {
			d.fail("churn KillNode %d: subject %+v, twin %+v", n, rs, rw)
		}
	}
	d.check()
	d.s.DeleteMatrix(a.Matrix)
	d.w.DeleteMatrix(a.Matrix)
	d.check()
}

// check compares everything the two report, tile addresses included.
func (d *tvDriver) check() {
	d.t.Helper()
	if vs, vw := tvView(d.s), strings.ReplaceAll(tvView(d.w), "\x00", ""); vs != vw {
		d.fail("views differ\nsubject\n%s\ntwin\n%s", vs, vw)
	}
	prefix := tvPref[d.rng.Intn(len(tvPref))]
	ls, lw := d.s.List(prefix), d.w.List(prefix)
	if len(ls) != len(lw) {
		d.fail("List(%q): subject %q, twin %q", prefix, ls, lw)
	}
	for i := range ls {
		if ls[i]+"\x00" != lw[i] {
			d.fail("List(%q): subject %q, twin %q", prefix, ls, lw)
		}
	}
	// Every file a tile address names is found by that address.
	b := d.s.Batch()
	defer b.Done()
	for _, e := range d.s.sorted("") {
		a := tvAddr(e.path)
		if a == nil {
			continue
		}
		if got, want := b.FirstReplicaNode(*a), d.s.firstReplica(e.get()); got != want {
			d.fail("%s: FirstReplicaNode by address %d, by path %d", e.path, got, want)
		}
	}
}

// tvView renders every file in List order with its size, replica lists and
// first live replica, then every node's counters.
func tvView(fs *FS) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d files\n", len(fs.List("")))
	for _, p := range fs.List("") {
		size, _ := fs.Size(p)
		reps, _ := fs.BlockReplicas(p)
		fmt.Fprintf(&b, "%s %d %v first %d\n", p, size, reps, firstReplicaNode(fs, p))
	}
	for n := -1; n < fs.cfg.Nodes; n++ {
		fmt.Fprintf(&b, "node %d alive %v %+v\n", n, fs.NodeAlive(n), fs.Stats(n))
	}
	return b.String()
}

var tvConfigs = []Config{
	{Nodes: 6, Replication: 3, BlockSize: 64, Seed: 5},
	{Nodes: 8, Replication: 3, BlockSize: 48, Seed: 9, RackSize: 4},
}

// TestTileAndPathViewsAgree drives random histories of path-keyed and
// tile-keyed writes, reads, deletes, prefix deletes, node deaths and matrix
// declarations, forking subject and twin alike now and then, and holds the
// subject to its all-ordinary twin after every step: the two faces see the
// same files, List and KillNode visit tiles in sort.Strings order of their
// paths (10_0 before 1_0), no non-canonical name (01_2, 1_2x, 1_2_3) is ever
// a tile, and a declared directory shows in nothing either reports.
func TestTileAndPathViewsAgree(t *testing.T) {
	for _, cfg := range tvConfigs {
		for seed := int64(1); seed <= 6; seed++ {
			d := &tvDriver{t: t, rng: rand.New(rand.NewSource(seed)), s: New(cfg), w: New(cfg)}
			for i := 0; i < 300; i++ {
				if i%100 == 99 {
					fork := d.rng.Int63()
					d.s, d.w = d.s.Fork(rand.New(rand.NewSource(fork))), d.w.Fork(rand.New(rand.NewSource(fork)))
					d.log = append(d.log, "Fork")
				}
				d.do()
			}
		}
	}
}

// TestNonCanonicalNamesAreNotTiles: a file whose base name only looks like a
// tile's is no tile address's file, in a matrix directory or anywhere.
func TestNonCanonicalNamesAreNotTiles(t *testing.T) {
	fs := New(Config{Nodes: 3, Replication: 2, Seed: 1})
	for _, base := range []string{"01_2", "1_02", "1_2x", "x1_2", "1_2_3", "+1_2", "1__2", "1_", "_2", "4096_0"} {
		if err := fs.WriteVirtual("/matrix/W/"+base, 10, 0); err != nil {
			t.Fatal(err)
		}
	}
	b := fs.Batch()
	defer b.Done()
	for ti := int32(0); ti < 12; ti++ {
		for tj := int32(0); tj < 12; tj++ {
			if _, err := b.ReadAccount(TileAddr{Matrix: "W", TI: ti, TJ: tj}, 0); !errors.Is(err, ErrNotFound) {
				t.Fatalf("tile (%d, %d) of W reads %v: a non-canonical name aliases it", ti, tj, err)
			}
		}
	}
	// An address off the grid is its path's ordinary file.
	if _, err := b.ReadAccount(TileAddr{Matrix: "W", TI: 4096, TJ: 0}, 0); err != nil {
		t.Fatalf("tile (4096, 0) of W: %v", err)
	}
}

// TestEdgeNameGrowsGridByOneRow: a canonical name at the grid's edge —
// 4095_0 or 0_4095 — grows its directory's grid by at most one row: maxGrid
// cells, and as many entries of the row index, in a directory of one tile
// and after the other edge name.
func TestEdgeNameGrowsGridByOneRow(t *testing.T) {
	for _, order := range [][]string{{"4095_0", "0_4095"}, {"0_4095", "4095_0"}} {
		fs := New(Config{Nodes: 3})
		if err := fs.WriteVirtual("/matrix/m/0_0", 10, 0); err != nil {
			t.Fatal(err)
		}
		d := fs.dirs["/matrix/m/"]
		for _, base := range order {
			cells, rows := len(d.cells), len(d.rows)
			if err := fs.WriteVirtual("/matrix/m/"+base, 10, 0); err != nil {
				t.Fatal(err)
			}
			if cells, rows = len(d.cells)-cells, len(d.rows)-rows; cells > maxGrid || rows > maxGrid {
				t.Errorf("writing %s after %v grew the grid by %d cells and %d rows, more than one row of %d", base, order, cells, rows, maxGrid)
			}
		}
	}
}

// TestTileAndPathViewsAgreeAcrossForks forks one loaded subject (and its
// twin) twice and drives the two forks from two goroutines, each against its
// own twin, starting inside a directory that held tiles at fork time, then
// requires the source unchanged; then changes the source the same way and
// requires both forks unchanged. CI runs it under -race, ten times over.
func TestTileAndPathViewsAgreeAcrossForks(t *testing.T) {
	for _, cfg := range tvConfigs {
		d := &tvDriver{t: t, rng: rand.New(rand.NewSource(3)), s: New(cfg), w: New(cfg)}
		for i := 0; i < 150; i++ {
			d.do()
		}
		// Whatever the history left, a matrix directory holds tiles.
		for _, a := range []TileAddr{{Matrix: "X"}, {Matrix: "X", TJ: 1}, {Matrix: "X", TI: 1}} {
			d.same("WriteVirtual", d.s.WriteVirtual(a.Path(), 50, -1), d.w.WriteVirtual(a.Path()+"\x00", 50, -1))
		}
		before := tvView(d.s)
		forks := make([]*tvDriver, 2)
		var wg sync.WaitGroup
		for g := range forks {
			f := &tvDriver{t: t, rng: rand.New(rand.NewSource(10 + int64(g))),
				s: d.s.Fork(rand.New(rand.NewSource(int64(g)))), w: d.w.Fork(rand.New(rand.NewSource(int64(g))))}
			forks[g] = f
			wg.Add(1)
			go func() {
				defer wg.Done()
				f.churnTiles()
				for i := 0; i < 150; i++ {
					f.do()
				}
			}()
		}
		wg.Wait()
		if tvView(d.s) != before {
			t.Fatalf("%+v: driving the forks changed their source", cfg)
		}
		views := []string{tvView(forks[0].s), tvView(forks[1].s)}
		d.churnTiles()
		for g, f := range forks {
			if tvView(f.s) != views[g] {
				t.Fatalf("%+v: changing the source changed fork %d", cfg, g)
			}
		}
	}
}
