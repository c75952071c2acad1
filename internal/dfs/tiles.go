package dfs

import (
	"maps"
	"slices"
	"strconv"
	"strings"
)

// MatrixRoot holds one directory per matrix; tile (ti, tj) of matrix m
// renders as the path MatrixRoot + m + "/<ti>_<tj>".
const MatrixRoot = "/matrix/"

// TileAddr addresses tile (TI, TJ) of the matrix named Matrix. A tile has
// this one name: the engine reads, writes and locates tiles by address only,
// and no path-keyed call reaches a tile. Path renders the address as text for
// the edges (listings, checkpoint manifests, error messages) and names the
// ordinary file an address off its matrix's declared grid stands for.
type TileAddr struct {
	Matrix string
	TI, TJ int32
}

// Path renders the address's path in a stack buffer: one allocation.
func (a TileAddr) Path() string {
	var buf [64]byte
	b := append(append(append(buf[:0], MatrixRoot...), a.Matrix...), '/')
	return string(appendTileName(b, tileKey{a.TI, a.TJ}))
}

type tileKey struct{ ti, tj int32 }

// maxGrid bounds a declared grid's rows and columns.
const maxGrid = 1 << 12

func appendTileName(b []byte, k tileKey) []byte {
	b = append(strconv.AppendInt(b, int64(k.ti), 10), '_')
	return strconv.AppendInt(b, int64(k.tj), 10)
}

// dir is one directory: the tile grid its matrix was declared at
// (Batch.Declare), rows × cols cells in one row-major array, and every other
// file in a map by its full path, each file a cell held by value. A
// path-keyed call names only the map's files; an address names a cell of the
// grid when it falls inside it, and otherwise the map's file at its path.
//
// A directory a fork shares is never changed again: the first change either
// side makes copies it (FS.own).
type dir struct {
	path   string // through the trailing '/'
	cells  []cell // nil without a grid
	cols   int32
	files  map[string]cell // by full path
	nt     int32           // tiles in the grid
	shared bool
}

func (d *dir) len() int { return int(d.nt) + len(d.files) }

// copy returns a directory of d's files that shares nothing with d but the
// payloads and spilled block lists, which nothing changes in place.
func (d *dir) copy() *dir {
	c := *d
	c.cells, c.files, c.shared = slices.Clone(d.cells), maps.Clone(d.files), false
	return &c
}

// cell returns the grid's cell k, or nil when k is off the grid.
func (d *dir) cell(k tileKey) *cell {
	if k.ti >= 0 && k.tj >= 0 && k.tj < d.cols {
		if i := int(k.ti)*int(d.cols) + int(k.tj); i < len(d.cells) {
			return &d.cells[i]
		}
	}
	return nil
}

// slot is where a file is, or would go: its directory (nil while an ordinary
// file's has none) and its key there — a grid cell's coordinates, or an
// ordinary file's path.
type slot struct {
	d    *dir
	tile bool
	k    tileKey
	path string // an ordinary file's; a grid cell's once rendered
}

// get returns the file in s, a vacant cell if there is none.
func (s slot) get() cell {
	switch {
	case s.d == nil:
		return cell{}
	case s.tile:
		return *s.d.cell(s.k)
	}
	return s.d.files[s.path]
}

// set stores c in s, whose directory exists and is this file system's own,
// or removes s's file for a vacant c.
func (s slot) set(c cell) {
	d := s.d
	if s.tile {
		p := d.cell(s.k)
		if p.vacant() && !c.vacant() {
			d.nt++
		} else if !p.vacant() && c.vacant() {
			d.nt--
		}
		*p = c
		return
	}
	if c.vacant() {
		delete(d.files, s.path)
	} else if d.files == nil {
		d.files = map[string]cell{s.path: c}
	} else {
		d.files[s.path] = c
	}
}

func (s *slot) pathname() string {
	if !s.tile || s.path != "" {
		return s.path
	}
	var buf [64]byte
	return string(appendTileName(append(buf[:0], s.d.path...), s.k))
}

// under returns the slots of d's files whose paths start with prefix, each
// path rendered.
func (d *dir) under(prefix string) []slot {
	var out []slot
	for p := range d.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, slot{d: d, path: p})
		}
	}
	for i := range d.cells {
		if d.cells[i].vacant() {
			continue
		}
		s := slot{d: d, tile: true, k: tileKey{int32(i) / d.cols, int32(i) % d.cols}}
		if s.path = s.pathname(); strings.HasPrefix(s.path, prefix) {
			out = append(out, s)
		}
	}
	return out
}

// Batch is the file system's tile-keyed face, held by one goroutine for a
// run of operations — the engine replays a task's trace in one, loads a
// matrix in one: FS.Batch locks, Done unlocks, and nothing else may call the
// file system in between. A batch looks each matrix's directory up once;
// every other step indexes its grid. Each call is the path-keyed call of the
// same name on the tile at the address.
type Batch struct {
	fs   *FS
	seen []*dir // matrix directories looked up during this hold
}

// Batch locks the file system and returns its tile-keyed face.
func (fs *FS) Batch() *Batch {
	fs.mu.Lock()
	fs.batch.forget()
	return &fs.batch
}

// Done unlocks the file system; b must not be used after it.
func (b *Batch) Done() { b.fs.mu.Unlock() }

// forget drops the batch's lookups, for a new hold or a directory dropped
// or replaced by its copy.
func (b *Batch) forget() {
	clear(b.seen)
	b.seen = b.seen[:0]
}

// at resolves a to its cell of its matrix's declared grid, or, for an
// address off that grid — a coordinate outside it, a grid past maxGrid, a
// matrix never declared — to offGrid's ordinary file.
func (b *Batch) at(a TileAddr) slot {
	d := b.dir(a.Matrix)
	if k := (tileKey{a.TI, a.TJ}); d != nil && d.cell(k) != nil {
		return slot{d: d, tile: true, k: k}
	}
	return offGrid(d, a)
}

// dir returns the named matrix's directory, nil while it has none, looking
// each one up in the file system once per hold.
func (b *Batch) dir(matrix string) *dir {
	for _, d := range b.seen {
		if d.path[len(MatrixRoot):len(d.path)-1] == matrix {
			return d
		}
	}
	var buf [64]byte
	path := append(append(append(buf[:0], MatrixRoot...), matrix...), '/')
	d := b.fs.dirs[string(path)]
	if d != nil {
		b.seen = append(b.seen, d)
	}
	return d
}

// offGrid resolves an address off its matrix's grid to the ordinary file its
// path names, in d, its matrix's directory if there is one. Rendering the
// path is the one allocation a tile operation can make.
func offGrid(d *dir, a TileAddr) slot { return slot{d: d, path: a.Path()} }

// Declare makes the named matrix's directory with its whole tile grid, rows
// × cols vacant cells in one array: the engine declares every matrix it
// writes at the grid its plan fixes, and no other call makes a grid. It does
// nothing when the directory exists, a fork's shared one included, or the
// grid is past maxGrid. A declared directory holds no file until a tile is
// written: nothing lists, sizes or reads it. It stays, with its grid, until
// DeleteMatrix drops the matrix.
func (b *Batch) Declare(matrix string, rows, cols int) {
	if rows <= 0 || cols <= 0 || rows > maxGrid || cols > maxGrid || b.dir(matrix) != nil {
		return
	}
	d := &dir{path: MatrixRoot + matrix + "/", cells: make([]cell, rows*cols), cols: int32(cols)}
	b.fs.dirs[d.path] = d
	b.seen = append(b.seen, d)
}

func (b *Batch) Write(a TileAddr, data []byte, node int) error {
	return b.fs.write(b.at(a), data, int64(len(data)), false, node)
}

func (b *Batch) WriteVirtual(a TileAddr, size int64, node int) error {
	return b.fs.write(b.at(a), nil, size, true, node)
}

func (b *Batch) ReadAccount(a TileAddr, node int) (ReadSplit, error) {
	s := b.at(a)
	return b.fs.readAccount(&s, node)
}

func (b *Batch) Read(a TileAddr, node int) ([]byte, error) {
	data, _, err := b.fs.read(b.at(a), node)
	return data, err
}

func (b *Batch) Peek(a TileAddr) ([]byte, error) { return b.fs.peek(b.at(a)) }

func (b *Batch) Delete(a TileAddr) { b.fs.drop(b.at(a)) }

// Placement returns the size of the tile at a and the replica lists of its
// blocks, in block order, live and dead replicas alike — what a checkpoint
// records so that WritePlaced can put the tile back exactly — and false when
// there is no tile.
func (b *Batch) Placement(a TileAddr) (int64, [][]int, bool) {
	c := b.at(a).get()
	if c.vacant() {
		return 0, nil, false
	}
	return c.size, c.replicaLists(), true
}

// WritePlaced stores the tile at a with the given per-block replica lists,
// bypassing placement randomness and write accounting: it is pure
// bookkeeping, the restore half of checkpointing, reconstructing a tile
// exactly where the checkpointed run had it. data may be nil for a virtual
// tile of the given size. The replica lists must cover ceil(size/BlockSize)
// blocks (minimum one) and be non-empty. Like Write, it takes ownership of
// data: the payload is immutable from here on.
func (b *Batch) WritePlaced(a TileAddr, data []byte, size int64, replicas [][]int) error {
	return b.fs.writePlaced(b.at(a), data, size, replicas)
}

// FirstReplicaNode returns the lowest-numbered live node holding a replica
// of the tile at a, or -1: the engine's locality hint for a task.
func (b *Batch) FirstReplicaNode(a TileAddr) int { return b.fs.firstReplica(b.at(a).get()) }

// DeleteMatrix removes the named matrix's directory, its grid and every file
// in it, with one map delete. A matrix name has no '/', so the directory has
// no subdirectory that a prefix delete would also take.
func (fs *FS) DeleteMatrix(matrix string) {
	if strings.Contains(matrix, "/") {
		panic("dfs: matrix name " + strconv.Quote(matrix) + " contains '/'")
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	delete(fs.dirs, MatrixRoot+matrix+"/")
}

// PeekTile is Batch.Peek for compute tasks on any goroutine.
func (fs *FS) PeekTile(a TileAddr) ([]byte, error) {
	b := fs.Batch()
	defer b.Done()
	return b.Peek(a)
}
