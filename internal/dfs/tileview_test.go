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

// The tile-view tests hold a declared grid's tiles to ordinary files. A
// subject file system takes every operation on a name that some tile
// address renders by that address, and every other by path. Its twin takes
// the same operations by path on the name with a NUL byte appended: a name
// no address renders, that sorts wherever the name does. So the twin holds
// every file as an ordinary one, while the subject holds a declared
// matrix's tiles in its grid and an address off the grid as the ordinary
// file at its path; and the subject must report exactly what the twin does
// — the same files in the same order, sizes, replica lists, counters,
// errors and recovery reports.
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

// batch runs f on the subject's tile-keyed face.
func (d *tvDriver) batch(f func(b *Batch)) {
	b := d.s.Batch()
	defer b.Done()
	f(b)
}

// do applies one random operation.
func (d *tvDriver) do() {
	d.t.Helper()
	d.step++
	rng := d.rng
	path := tvDirs[rng.Intn(len(tvDirs))] + tvBase[rng.Intn(len(tvBase))]
	a := testAddr(path)
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
		op = fmt.Sprintf("Write %q node %d", path, node)
		var es error
		if a != nil {
			d.batch(func(b *Batch) { es = b.Write(*a, data, node) })
		} else {
			es = d.s.Write(path, data, node)
		}
		d.same(op, es, d.w.Write(twin, data, node))
	case k < 8:
		size := int64(rng.Intn(200))
		op = fmt.Sprintf("WriteVirtual %q %d node %d", path, size, node)
		var es error
		if a != nil {
			d.batch(func(b *Batch) { es = b.WriteVirtual(*a, size, node) })
		} else {
			es = d.s.WriteVirtual(path, size, node)
		}
		d.same(op, es, d.w.WriteVirtual(twin, size, node))
	case k < 10:
		reps := [][]int{{rng.Intn(d.s.cfg.Nodes)}, {rng.Intn(d.s.cfg.Nodes), rng.Intn(d.s.cfg.Nodes)}}
		op = fmt.Sprintf("WritePlaced %q %v", path, reps)
		var es error
		if a != nil {
			d.batch(func(b *Batch) { es = b.WritePlaced(*a, nil, 70, reps) })
		} else {
			es = d.s.WritePlaced(path, nil, 70, reps)
		}
		d.same(op, es, d.w.WritePlaced(twin, nil, 70, reps))
	case k < 13:
		op = fmt.Sprintf("Delete %q", path)
		if a != nil {
			d.batch(func(b *Batch) { b.Delete(*a) })
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
		op = fmt.Sprintf("read %q node %d", path, node)
		var ss ReadSplit
		var data, peeked []byte
		var es, er, ep error
		if a != nil {
			d.batch(func(b *Batch) {
				ss, es = b.ReadAccount(*a, node)
				data, er = b.Read(*a, node)
				peeked, ep = b.Peek(*a)
			})
		} else {
			ss, es = d.s.ReadAccount(path, node)
			data, _, er = d.s.readTracked(path, node)
			peeked, ep = d.s.Peek(path)
		}
		sw, ew := d.w.ReadAccount(twin, node)
		dw, _, erw := d.w.readTracked(twin, node)
		pw, epw := d.w.Peek(twin)
		d.same(op+" ReadAccount", es, ew)
		d.same(op+" Read", er, erw)
		d.same(op+" Peek", ep, epw)
		if ss != sw || string(data) != string(dw) || string(peeked) != string(pw) {
			d.fail("%s: subject %+v %q %q, twin %+v %q %q", op, ss, data, peeked, sw, dw, pw)
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
	d.batch(func(b *Batch) { b.Declare(testNum(name), name, rows, cols) })
	got := d.s.dirs[path]
	switch {
	case held != nil && (got != held || len(got.cells) != len(was.cells) || got.cols != was.cols ||
		got.nt != was.nt || len(got.files) != len(was.files) || got.shared != was.shared):
		d.fail("Declare %q %dx%d changed the existing directory", name, rows, cols)
	case held == nil && cols > maxGrid && got != nil:
		d.fail("Declare %q %dx%d past the grid made a directory", name, rows, cols)
	case held == nil && cols <= maxGrid && (got == nil || len(got.cells) != rows*cols || int(got.cols) != cols || got.len() != 0):
		d.fail("Declare %q %dx%d made %+v", name, rows, cols, got)
	}
}

// churnTiles changes the directory of the first tile held in a grid, on
// subject and twin alike: two tiles written by address after it in its row
// — into the grid's vacant cells, or past it as ordinary files — the tile
// deleted, a live node killed and the matrix dropped.
func (d *tvDriver) churnTiles() {
	d.t.Helper()
	var a *TileAddr
	d.s.mu.Lock()
	for _, s := range d.s.sorted(MatrixRoot) {
		if s.tile {
			a = &TileAddr{Matrix: testNum(s.d.path[len(MatrixRoot) : len(s.d.path)-1]), TI: s.k.ti, TJ: s.k.tj}
			break
		}
	}
	d.s.mu.Unlock()
	if a == nil {
		d.fail("no grid holds a tile")
	}
	vacant := func() TileAddr {
		c := *a
		for tileExists(d.s, c) {
			c.TJ++
		}
		return c
	}
	d.log = append(d.log, fmt.Sprintf("churn %+v", *a))
	w := vacant()
	var es error
	d.batch(func(b *Batch) { es = b.WriteVirtual(w, 40, -1) })
	d.same("churn WriteVirtual", es, d.w.WriteVirtual(testPath(w)+"\x00", 40, -1))
	w = vacant()
	p := testPath(w)
	d.batch(func(b *Batch) { es = b.Write(w, []byte(p), -1) })
	d.same("churn Write", es, d.w.Write(p+"\x00", []byte(p), -1))
	d.batch(func(b *Batch) { b.Delete(*a) })
	d.w.Delete(testPath(*a) + "\x00")
	if len(d.s.live) > 1 {
		n := d.s.live[0]
		if rs, rw := d.s.KillNode(n), d.w.KillNode(n); rs != rw {
			d.fail("churn KillNode %d: subject %+v, twin %+v", n, rs, rw)
		}
	}
	d.check()
	d.s.DeleteMatrix(testMatrices[a.Matrix])
	d.w.DeleteMatrix(testMatrices[a.Matrix])
	d.check()
}

// check compares everything the two report, and requires every file an
// address renders to be the one that address finds.
func (d *tvDriver) check() {
	d.t.Helper()
	if vs, vw := forkView(d.s), strings.ReplaceAll(forkView(d.w), "\x00", ""); vs != vw {
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
	b := d.s.Batch()
	defer b.Done()
	for _, e := range d.s.sorted("") {
		a := testAddr(e.path)
		if a == nil {
			continue
		}
		c := e.get()
		size, reps, ok := b.Placement(*a)
		if !ok || size != c.size || fmt.Sprint(reps) != fmt.Sprint(c.replicaLists()) || b.FirstReplicaNode(*a) != d.s.firstReplica(c) {
			d.fail("%s: by address %v %d %v first %d, stored %d %v first %d",
				e.path, ok, size, reps, b.FirstReplicaNode(*a), c.size, c.replicaLists(), d.s.firstReplica(c))
		}
	}
}

var tvConfigs = []Config{
	{Nodes: 6, Replication: 3, BlockSize: 64, Seed: 5},
	{Nodes: 8, Replication: 3, BlockSize: 48, Seed: 9, RackSize: 4},
}

// TestTilesAgreeWithOrdinaryFiles drives random histories of writes, reads,
// deletes, prefix deletes, node deaths and matrix declarations, by address
// wherever a name is a tile's, forking subject and twin alike now and then,
// and holds the subject to its all-ordinary twin after every step: a grid's
// tiles and the ordinary files beside them are listed and re-replicated in
// sort.Strings order of their paths (10_0 before 1_0), an address off its
// matrix's grid is the file at its path, and a declared directory shows in
// nothing either reports.
func TestTilesAgreeWithOrdinaryFiles(t *testing.T) {
	for _, cfg := range tvConfigs {
		for seed := int64(1); seed <= 6; seed++ {
			d := &tvDriver{t: t, rng: rand.New(rand.NewSource(seed)), s: bindTest(New(cfg)), w: New(cfg)}
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

// TestTilesAgreeWithOrdinaryFilesAcrossForks forks one loaded subject (and
// its twin) twice and drives the two forks from two goroutines, each
// against its own twin, starting inside a grid that held tiles at fork time,
// then requires the source unchanged; then changes the source the same way
// and requires both forks unchanged. CI runs it under -race, ten times over.
func TestTilesAgreeWithOrdinaryFilesAcrossForks(t *testing.T) {
	for _, cfg := range tvConfigs {
		d := &tvDriver{t: t, rng: rand.New(rand.NewSource(3)), s: bindTest(New(cfg)), w: New(cfg)}
		for i := 0; i < 150; i++ {
			d.do()
		}
		// Whatever the history left, a grid holds tiles.
		d.batch(func(b *Batch) { b.Declare(testNum("F"), "F", 2, 2) })
		for _, a := range []TileAddr{testTile("F", 0, 0), testTile("F", 0, 1), testTile("F", 1, 0)} {
			var es error
			d.batch(func(b *Batch) { es = b.WriteVirtual(a, 50, -1) })
			d.same("WriteVirtual", es, d.w.WriteVirtual(testPath(a)+"\x00", 50, -1))
		}
		before := forkView(d.s)
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
		if forkView(d.s) != before {
			t.Fatalf("%+v: driving the forks changed their source", cfg)
		}
		views := []string{forkView(forks[0].s), forkView(forks[1].s)}
		d.churnTiles()
		for g, f := range forks {
			if forkView(f.s) != views[g] {
				t.Fatalf("%+v: changing the source changed fork %d", cfg, g)
			}
		}
	}
}

// TestPathsNeverNameTiles: a tile has one name, its address. Every
// path-keyed call in a declared matrix's directory names an ordinary file,
// whether its base name is a tile's (0_0, 11_11) or only looks like one
// (01_2, 1_2x): none fills a cell of the grid or is found by an address in
// it, and a tile written by address is found by no path. An address off the
// grid — past its rows or columns, negative, of a grid Declare refused, of
// a matrix never declared — is the ordinary file at its path.
func TestPathsNeverNameTiles(t *testing.T) {
	fs := bindTest(New(Config{Nodes: 3, Replication: 2, Seed: 1}))
	b := fs.Batch()
	b.Declare(testNum("W"), "W", 12, 12)
	b.Declare(testNum("G"), "G", 1, maxGrid+1)
	b.Done()
	d := fs.dirs["/matrix/W/"]
	for _, base := range []string{"0_0", "11_11", "3_4", "01_2", "1_02", "1_2x", "x1_2", "1_2_3", "+1_2", "1__2", "1_", "_2"} {
		if err := fs.WriteVirtual("/matrix/W/"+base, 10, 0); err != nil {
			t.Fatal(err)
		}
	}
	if d.nt != 0 || fs.dirs["/matrix/W/"] != d || len(d.cells) != 144 {
		t.Fatalf("path-keyed writes filled %d cells of W's grid", d.nt)
	}
	b = fs.Batch()
	for ti := int32(0); ti < 12; ti++ {
		for tj := int32(0); tj < 12; tj++ {
			if _, err := b.ReadAccount(testTile("W", ti, tj), 0); !errors.Is(err, ErrNotFound) {
				t.Fatalf("tile (%d, %d) of W reads %v: a path named it", ti, tj, err)
			}
		}
	}
	if err := b.Write(testTile("W", 3, 4), []byte("tile"), 1); err != nil {
		t.Fatalf("tile (3, 4) of W beside the file /matrix/W/3_4: %v", err)
	}
	b.Done()
	if got, err := fs.Peek("/matrix/W/3_4"); !errors.Is(err, ErrVirtual) {
		t.Fatalf("the path /matrix/W/3_4 reads %q, %v: the tile at its name, not the virtual file", got, err)
	}
	off := []TileAddr{
		testTile("W", 12, 0), testTile("W", 0, 12), testTile("W", -1, 0), testTile("W", maxGrid, 0),
		testTile("G", 0, 0), testTile("U", 2, 5),
	}
	for i, a := range off {
		b := fs.Batch()
		err := b.Write(a, []byte{byte(i)}, 2)
		b.Done()
		if err != nil {
			t.Fatal(err)
		}
		if got, err := fs.Peek(testPath(a)); err != nil || len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("%+v, off its grid, is not the file at %s: %v, %v", a, testPath(a), got, err)
		}
	}
	if d.nt != 1 || len(d.cells) != 144 || fs.dirs["/matrix/G/"].cells != nil || fs.dirs["/matrix/U/"].cells != nil {
		t.Fatalf("writes off the grid made or filled a cell: W holds %d tiles in %d cells", d.nt, len(d.cells))
	}
}
