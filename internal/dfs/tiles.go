package dfs

import (
	"maps"
	"slices"
	"strconv"
	"strings"
)

// MatrixRoot holds one directory per matrix: tile (ti, tj) of matrix m is
// the file MatrixRoot + m + "/<ti>_<tj>".
const MatrixRoot = "/matrix/"

// TileAddr addresses tile (TI, TJ) of the matrix named Matrix, the file at
// Path. The engine reads, writes and locates tiles by address; paths are
// text for the edges (listings, checkpoint manifests, error messages).
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

// maxGrid bounds a directory's tile grid: a canonical name with a coordinate
// at or above it is an ordinary file's, so no one name grows a grid by more
// than a row of maxGrid cells.
const maxGrid = 1 << 12

func inGrid(c int32) bool { return c >= 0 && c < maxGrid }

func appendTileName(b []byte, k tileKey) []byte {
	b = append(strconv.AppendInt(b, int64(k.ti), 10), '_')
	return strconv.AppendInt(b, int64(k.tj), 10)
}

// parseTileName reports whether base is a canonical tile name — <ti>_<tj>,
// decimal, unsigned, without leading zeros and within the grid — and its
// coordinates. A path with such a base name is that tile; any other (01_2,
// 1_2x, 1_2_3, -1_0) is an ordinary file's.
func parseTileName(base string) (tileKey, bool) {
	a, b, found := strings.Cut(base, "_")
	ti, ok := parseCoord(a)
	tj, ok2 := parseCoord(b)
	return tileKey{ti, tj}, found && ok && ok2
}

func parseCoord(s string) (int32, bool) {
	if s == "" || len(s) > 9 || s[0] == '0' && len(s) > 1 {
		return 0, false
	}
	v := int32(0)
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
		v = 10*v + int32(s[i]-'0')
	}
	return v, inGrid(v)
}

// dir is one directory: its tiles — files with a canonical base name — in a
// grid, every other file in a map, each file a cell held by value. Row ti of
// the grid is the span rows[ti] of cells, one array all rows are cut from, so
// it grows geometrically, by append, and a write into an existing directory
// allocates nothing once the grid has room. A row that must grow takes at
// once the width of the widest tile column written: in place when it ends
// the array, and otherwise at the end, with at least twice its width, its old
// cells left vacant.
//
// A directory a fork shares is never changed again: the first change either
// side makes copies it (FS.own).
type dir struct {
	path   string // through the trailing '/'
	cells  []cell
	rows   []span
	files  map[string]cell // by full path
	nt     int32           // tiles in the grid
	wide   int16           // the widest tile column written, plus one
	shared bool
}

// span is a grid row: n cells from cells[off].
type span struct{ off, n int32 }

func (d *dir) len() int { return int(d.nt) + len(d.files) }

// copy returns a directory of d's files that shares nothing with d but the
// payloads and spilled block lists, which nothing changes in place.
func (d *dir) copy() *dir {
	c := *d
	c.cells, c.rows, c.files, c.shared = slices.Clone(d.cells), slices.Clone(d.rows), maps.Clone(d.files), false
	return &c
}

// cell returns the grid's cell k, or nil while the grid has none.
func (d *dir) cell(k tileKey) *cell {
	if int(k.ti) < len(d.rows) {
		if r := d.rows[k.ti]; k.tj < r.n {
			return &d.cells[r.off+k.tj]
		}
	}
	return nil
}

// grow grows the grid to hold cell k, which it does not, and returns it.
func (d *dir) grow(k tileKey) *cell {
	d.wide = max(d.wide, int16(k.tj+1))
	if int(k.ti) >= len(d.rows) {
		d.rows = append(d.rows, make([]span, int(k.ti)+1-len(d.rows))...)
	}
	r := &d.rows[k.ti]
	w, end := int32(d.wide), int32(len(d.cells))
	if r.n == 0 || r.off+r.n != end {
		// A new row, or one that does not end the array, goes to its end.
		w = max(w, min(2*r.n, maxGrid))
		d.cells = append(d.cells, d.cells[r.off:r.off+r.n]...)
		clear(d.cells[r.off : r.off+r.n])
		r.off = end
	}
	d.cells = append(d.cells, make([]cell, w-(int32(len(d.cells))-r.off))...)
	r.n = w
	return &d.cells[r.off+k.tj]
}

// slot is where a file is, or would go: its directory (nil while it has no
// file) and its key there — a tile's coordinates or another file's path. A
// slot resolved from a path knows its directory's path; one resolved from a
// tile address knows the matrix, and renders paths on demand.
type slot struct {
	d      *dir
	dir    string // from a path
	matrix string // from an address
	tile   bool
	k      tileKey
	path   string
}

// get returns the file in s, a vacant cell if there is none.
func (s slot) get() cell {
	switch {
	case s.d == nil:
		return cell{}
	case !s.tile:
		return s.d.files[s.path]
	}
	if c := s.d.cell(s.k); c != nil {
		return *c
	}
	return cell{}
}

// set stores c in s, whose directory exists and is this file system's own,
// or removes s's file for a vacant c.
func (s slot) set(c cell) {
	d := s.d
	if !s.tile {
		if c.vacant() {
			delete(d.files, s.path)
		} else if d.files == nil {
			d.files = map[string]cell{s.path: c}
		} else {
			d.files[s.path] = c
		}
		return
	}
	p := d.cell(s.k)
	if p == nil && c.vacant() {
		return
	}
	if p == nil {
		p = d.grow(s.k)
	}
	if p.vacant() && !c.vacant() {
		d.nt++
	} else if !p.vacant() && c.vacant() {
		d.nt--
	}
	*p = c
}

// dirPath returns the path of s's directory.
func (s *slot) dirPath() string {
	switch {
	case s.d != nil:
		return s.d.path
	case s.tile && s.path == "":
		return MatrixRoot + s.matrix + "/"
	}
	return s.dir
}

func (s *slot) pathname() string {
	if !s.tile || s.path != "" {
		return s.path
	}
	var buf [64]byte
	return string(appendTileName(append(buf[:0], s.dirPath()...), s.k))
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
	for ti, r := range d.rows {
		for tj := int32(0); tj < r.n; tj++ {
			if d.cells[r.off+tj].vacant() {
				continue
			}
			s := slot{d: d, tile: true, k: tileKey{int32(ti), tj}}
			if s.path = s.pathname(); strings.HasPrefix(s.path, prefix) {
				out = append(out, s)
			}
		}
	}
	return out
}

// Batch is the file system's tile-keyed face, held by one goroutine for a
// run of operations — the engine replays a task's trace in one, loads a
// matrix in one: FS.Batch locks, Done unlocks, and nothing else may call the
// file system in between. A batch looks each matrix's directory up once;
// every other step indexes its grid. Each call is the path-keyed call of the
// same name on the address's path.
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

// at resolves a. An address off the grid — a negative coordinate has no
// canonical name — is the ordinary file at its path.
func (b *Batch) at(a TileAddr) slot {
	if !inGrid(a.TI) || !inGrid(a.TJ) {
		return b.fs.at(a.Path())
	}
	s := slot{matrix: a.Matrix, tile: true, k: tileKey{a.TI, a.TJ}}
	for _, d := range b.seen {
		if d.path[len(MatrixRoot):len(d.path)-1] == a.Matrix {
			s.d = d
			return s
		}
	}
	var buf [64]byte
	dir := append(append(append(buf[:0], MatrixRoot...), a.Matrix...), '/')
	if s.d = b.fs.dirs[string(dir)]; s.d != nil {
		b.seen = append(b.seen, s.d)
	}
	return s
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

func (b *Batch) Delete(a TileAddr) { b.fs.drop(b.at(a)) }

// FirstReplicaNode returns the lowest-numbered live node holding a replica
// of the tile at a, or -1: the engine's locality hint for a task.
func (b *Batch) FirstReplicaNode(a TileAddr) int { return b.fs.firstReplica(b.at(a).get()) }

// DeleteMatrix removes every file in the named matrix's directory with one
// map delete. A matrix name has no '/', so the directory has no subdirectory
// that a prefix delete would also take.
func (fs *FS) DeleteMatrix(matrix string) {
	if strings.Contains(matrix, "/") {
		panic("dfs: matrix name " + strconv.Quote(matrix) + " contains '/'")
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	delete(fs.dirs, MatrixRoot+matrix+"/")
}

// PeekTile is Peek of the tile at a, for compute tasks on any goroutine.
func (fs *FS) PeekTile(a TileAddr) ([]byte, error) {
	b := fs.Batch()
	defer b.Done()
	return fs.peek(b.at(a))
}
