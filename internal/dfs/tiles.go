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
// grid, tiles[ti][tj], whose rows grow on demand; every other file in a map.
type dir struct {
	path  string // through the trailing '/'
	tiles [][]*file
	nt    int              // tiles in the grid
	files map[string]*file // by full path
}

func (d *dir) len() int { return d.nt + len(d.files) }

// clone copies d for a fork: its grid rows are cut from one new array, each
// capped so that growing it copies.
func (d *dir) clone() *dir {
	c := &dir{path: d.path, tiles: make([][]*file, 0, len(d.tiles)), nt: d.nt, files: maps.Clone(d.files)}
	cells := slices.Concat(d.tiles...)
	for _, row := range d.tiles {
		c.tiles, cells = append(c.tiles, cells[:len(row):len(row)]), cells[len(row):]
	}
	return c
}

// slot is where a file is, or would go: its directory's path and index (nil
// while the directory has no file), and its key there — a tile's coordinates
// or another file's path. A tile's path is rendered on demand.
type slot struct {
	dir  string
	d    *dir
	tile bool
	k    tileKey
	path string
}

func (s slot) file() *file {
	switch {
	case s.d == nil:
		return nil
	case !s.tile:
		return s.d.files[s.path]
	case int(s.k.ti) < len(s.d.tiles) && int(s.k.tj) < len(s.d.tiles[s.k.ti]):
		return s.d.tiles[s.k.ti][s.k.tj]
	}
	return nil
}

// set stores f in s, whose directory exists, or removes s's file for nil.
func (s slot) set(f *file) {
	d := s.d
	if !s.tile {
		if f == nil {
			delete(d.files, s.path)
		} else if d.files == nil {
			d.files = map[string]*file{s.path: f}
		} else {
			d.files[s.path] = f
		}
		return
	}
	ti, tj := int(s.k.ti), int(s.k.tj)
	if ti >= len(d.tiles) {
		d.tiles = append(d.tiles, make([][]*file, ti+1-len(d.tiles))...)
	}
	// A row that must grow takes the widest row's width at once.
	if row := d.tiles[ti]; tj >= len(row) {
		w := tj + 1
		for _, r := range d.tiles {
			w = max(w, len(r))
		}
		d.tiles[ti] = append(row, make([]*file, w-len(row))...)
	}
	if old := d.tiles[ti][tj]; old == nil && f != nil {
		d.nt++
	} else if old != nil && f == nil {
		d.nt--
	}
	d.tiles[ti][tj] = f
}

func (s *slot) pathname() string {
	if !s.tile || s.path != "" {
		return s.path
	}
	var buf [64]byte
	return string(appendTileName(append(buf[:0], s.dir...), s.k))
}

// under returns the slots of d's files whose paths start with prefix, each
// path rendered.
func (d *dir) under(prefix string) []slot {
	var out []slot
	for p := range d.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, slot{dir: d.path, d: d, path: p})
		}
	}
	for ti, row := range d.tiles {
		for tj, f := range row {
			if f == nil {
				continue
			}
			s := slot{dir: d.path, d: d, tile: true, k: tileKey{int32(ti), int32(tj)}}
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

// forget drops the batch's lookups, for a new hold or a dropped directory.
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
	s := slot{tile: true, k: tileKey{a.TI, a.TJ}}
	for _, d := range b.seen {
		if d.path[len(MatrixRoot):len(d.path)-1] == a.Matrix {
			s.dir, s.d = d.path, d
			return s
		}
	}
	var buf [64]byte
	dir := append(append(append(buf[:0], MatrixRoot...), a.Matrix...), '/')
	if s.d = b.fs.dirs[string(dir)]; s.d == nil {
		s.dir = string(dir)
	} else {
		s.dir = s.d.path
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
func (b *Batch) FirstReplicaNode(a TileAddr) int { return b.fs.firstReplica(b.at(a).file()) }

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
