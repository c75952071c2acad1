// Package store persists matrices as grids of tiles in the distributed
// file system. Each tile is one DFS file, named by matrix name and tile
// coordinates, so tasks can read exactly the tiles they need — the basis
// of Cumulon's multi-input map-only execution model.
//
// Tiles are serialized in a compact binary format with a header, shape,
// payload and CRC32 checksum; sparse tiles use a CSR encoding. A store is
// cheap to create: it is a naming convention plus codec over a dfs.FS.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sync"
	"unsafe"

	"cumulon/internal/dfs"
	"cumulon/internal/linalg"
)

// Codec errors.
var (
	ErrCorrupt  = errors.New("store: corrupt tile")
	ErrBadMagic = errors.New("store: bad tile magic")
)

const (
	magicDense  = 0x43544c44 // "CTLD"
	magicSparse = 0x43544c53 // "CTLS"
)

// Meta describes a stored matrix: its logical shape and tiling geometry.
// Fringe tiles (last row/column of the grid) may be smaller than TileSize.
type Meta struct {
	Name       string
	Rows, Cols int
	TileSize   int
	Sparse     bool
	// Num is the matrix's number in its plan (plan.Compile): what its tile
	// addresses carry in place of Name, once a file system binds it (Bind,
	// Declare).
	Num int32
	// Density estimates the nonzero fraction of a sparse matrix; it feeds
	// I/O size estimation in the cost models. Zero or out-of-range values
	// are treated as 1 (fully dense). Dense matrices ignore it.
	Density float64
}

// TileRows returns the number of tile rows in the grid.
func (m Meta) TileRows() int { return ceilDiv(m.Rows, m.TileSize) }

// TileCols returns the number of tile columns in the grid.
func (m Meta) TileCols() int { return ceilDiv(m.Cols, m.TileSize) }

// TileShape returns the shape of tile (ti, tj), accounting for fringes.
func (m Meta) TileShape(ti, tj int) (rows, cols int) {
	rows = m.TileSize
	if r := m.Rows - ti*m.TileSize; r < rows {
		rows = r
	}
	cols = m.TileSize
	if c := m.Cols - tj*m.TileSize; c < cols {
		cols = c
	}
	return rows, cols
}

// Tile returns the DFS address of tile (ti, tj) of the matrix, the one name
// the tile has: it is read, written and located by address, the matrix by
// its number.
func (m Meta) Tile(ti, tj int) dfs.TileAddr {
	return dfs.TileAddr{Matrix: m.Num, TI: int32(ti), TJ: int32(tj)}
}

// TilePath renders the path of tile (ti, tj) of the matrix, dfs.MatrixRoot +
// m.Name + "/<ti>_<tj>": its name as text, for the edges.
func (m Meta) TilePath(ti, tj int) string { return dfs.TilePath(m.Name, int32(ti), int32(tj)) }

// Declare binds the matrix's number to it in b and makes its DFS directory
// at its tile grid: the cells its tiles are written into (dfs.Batch.Declare).
func (m Meta) Declare(b *dfs.Batch) { b.Declare(m.Num, m.Name, m.TileRows(), m.TileCols()) }

// EffDensity returns the density used for size estimation: the declared
// density for sparse matrices (defaulting to 1 when unset), 1 for dense.
func (m Meta) EffDensity() float64 {
	if !m.Sparse || m.Density <= 0 || m.Density > 1 {
		return 1
	}
	return m.Density
}

// EstTileBytes estimates the serialized size of tile (ti, tj): exact for
// dense tiles, density-scaled for sparse ones (CSR layout: 12 bytes per
// nonzero plus row pointers plus header/checksum).
func (m Meta) EstTileBytes(ti, tj int) int64 {
	rows, cols := m.TileShape(ti, tj)
	if m.Sparse {
		nnz := int64(m.EffDensity() * float64(rows) * float64(cols))
		return nnz*12 + int64(rows+1)*4 + 20
	}
	return int64(rows)*int64(cols)*8 + 16
}

// EstBytes estimates the total serialized size of the matrix.
func (m Meta) EstBytes() int64 {
	var n int64
	for ti := 0; ti < m.TileRows(); ti++ {
		for tj := 0; tj < m.TileCols(); tj++ {
			n += m.EstTileBytes(ti, tj)
		}
	}
	return n
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Store reads and writes tiles of named matrices on a DFS.
type Store struct {
	FS *dfs.FS
}

// New returns a Store over fs.
func New(fs *dfs.FS) *Store { return &Store{FS: fs} }

// region returns the slice of d that starts at tile (ti, tj) of m, and the
// tile's shape; rows of the tile are d.Cols apart in it.
func region(m Meta, d *linalg.Dense, ti, tj int) (data []float64, rows, cols int) {
	rows, cols = m.TileShape(ti, tj)
	return d.Data[ti*m.TileSize*d.Cols+tj*m.TileSize:], rows, cols
}

// csrBufs recycles the CSR forms ingest converts sparse tiles through across
// calls, which would otherwise grow a fresh one per goroutine per load.
var csrBufs = sync.Pool{New: func() any { return new(linalg.CSRTile) }}

// SaveDense uploads a dense in-memory matrix tile by tile (as an external
// client: replicas are placed randomly, like an HDFS ingest). Each tile is
// encoded, or CSR-converted through a pooled buffer, straight from its
// region of d; the payloads are then written in (ti, tj) order, the order
// replica placement draws its random numbers in.
func (s *Store) SaveDense(m Meta, d *linalg.Dense, node int) error {
	if d.Rows != m.Rows || d.Cols != m.Cols {
		return fmt.Errorf("store: matrix %s shape %dx%d does not match meta %dx%d",
			m.Name, d.Rows, d.Cols, m.Rows, m.Cols)
	}
	tileCols := m.TileCols()
	raws := make([][]byte, m.TileRows()*tileCols)
	linalg.ForEach(len(raws), func() func(int) {
		return func(i int) {
			data, rows, cols := region(m, d, i/tileCols, i%tileCols)
			if m.Sparse {
				sp := csrBufs.Get().(*linalg.CSRTile)
				sp.SetDense(data, rows, cols, d.Cols)
				raws[i] = EncodeSparseTile(sp)
				csrBufs.Put(sp)
			} else {
				raws[i] = encodeDense(data, rows, cols, d.Cols)
			}
		}
	})
	b := s.FS.Batch()
	defer b.Done()
	m.Declare(b)
	for i, raw := range raws {
		if err := b.Write(m.Tile(i/tileCols, i%tileCols), raw, node); err != nil {
			return err
		}
	}
	return nil
}

// LoadDense downloads the whole matrix into a dense in-memory matrix: the
// tiles are read, and the reads accounted, in (ti, tj) order, then each is
// decoded (sparse ones included) straight into its region.
func (s *Store) LoadDense(m Meta, node int) (*linalg.Dense, error) {
	tileCols := m.TileCols()
	raws := make([][]byte, m.TileRows()*tileCols)
	b := s.FS.Batch()
	b.Bind(m.Num, m.Name)
	var err error
	for i := 0; i < len(raws) && err == nil; i++ {
		raws[i], err = b.Read(m.Tile(i/tileCols, i%tileCols), node)
	}
	if b.Done(); err != nil {
		return nil, err
	}
	d := linalg.NewDense(m.Rows, m.Cols)
	errs := make([]error, len(raws))
	linalg.ForEach(len(raws), func() func(int) {
		var sp linalg.CSRTile // decode buffer shared by the goroutine's sparse tiles
		return func(i int) {
			errs[i] = decodeInto(m, d, i/tileCols, i%tileCols, raws[i], &sp)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}

// decodeInto decodes the stored payload of tile (ti, tj) of m into its
// region of d, through sp when the matrix is sparse.
func decodeInto(m Meta, d *linalg.Dense, ti, tj int, raw []byte, sp *linalg.CSRTile) error {
	data, rows, cols := region(m, d, ti, tj)
	var gotRows, gotCols int
	var body []byte
	var err error
	if m.Sparse {
		err = DecodeSparseTileInto(sp, raw)
		gotRows, gotCols = sp.Rows, sp.Cols
	} else {
		gotRows, gotCols, body, err = denseBody(raw)
	}
	if err != nil {
		return err
	}
	if gotRows != rows || gotCols != cols {
		return fmt.Errorf("store: matrix %s tile (%d,%d) is stored %dx%d, meta says %dx%d",
			m.Name, ti, tj, gotRows, gotCols, rows, cols)
	}
	if m.Sparse {
		sp.ScatterInto(data, d.Cols)
		return nil
	}
	for i := 0; i < rows; i++ {
		getFloats(data[i*d.Cols:i*d.Cols+cols], body[8*i*cols:])
	}
	return nil
}

// EncodeTile serializes a dense tile: magic, rows, cols, payload, CRC32.
func EncodeTile(t *linalg.Tile) []byte { return encodeDense(t.Data, t.Rows, t.Cols, t.Cols) }

// encodeDense serializes as a dense tile the rows x cols region at the
// start of data, a row-major array with the given row stride.
func encodeDense(data []float64, rows, cols, stride int) []byte {
	buf := make([]byte, 12+8*rows*cols+4)
	binary.LittleEndian.PutUint32(buf[0:], magicDense)
	binary.LittleEndian.PutUint32(buf[4:], uint32(rows))
	binary.LittleEndian.PutUint32(buf[8:], uint32(cols))
	off := 12
	for i := 0; i < rows; i++ {
		putFloats(buf[off:], data[i*stride:i*stride+cols])
		off += 8 * cols
	}
	binary.LittleEndian.PutUint32(buf[off:], crc32.ChecksumIEEE(buf[:off]))
	return buf
}

// littleEndian reports whether this host keeps a float64 in memory in the
// format's byte order, so that a run of them is stored as its bytes.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// floatBytes is the memory of f as bytes, 8 per value in host order.
func floatBytes(f []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), 8*len(f))
}

// putFloats encodes src at the start of dst as little-endian float64s: one
// copy on a little-endian host, the portable loop on any other.
func putFloats(dst []byte, src []float64) {
	if littleEndian {
		copy(dst[:8*len(src)], floatBytes(src))
		return
	}
	putFloatsLoop(dst, src)
}

func putFloatsLoop(dst []byte, src []float64) {
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

// getFloats decodes len(dst) little-endian float64 values from src, as
// putFloats encodes them.
func getFloats(dst []float64, src []byte) {
	if littleEndian {
		copy(floatBytes(dst), src[:8*len(dst)])
		return
	}
	getFloatsLoop(dst, src)
}

func getFloatsLoop(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// denseBody validates a dense tile payload — magic, a shape that accounts
// for every byte, checksum — and returns the shape and the encoded values.
func denseBody(raw []byte) (rows, cols int, body []byte, err error) {
	if len(raw) < 16 {
		return 0, 0, nil, ErrCorrupt
	}
	if binary.LittleEndian.Uint32(raw[0:]) != magicDense {
		return 0, 0, nil, ErrBadMagic
	}
	rows = int(binary.LittleEndian.Uint32(raw[4:]))
	cols = int(binary.LittleEndian.Uint32(raw[8:]))
	// Bound the shape by the payload before multiplying: a hostile header
	// makes 8*rows*cols wrap around to a length that matches.
	n := (len(raw) - 16) / 8
	if rows <= 0 || cols <= 0 || rows > n || cols > n/rows || len(raw) != 16+8*rows*cols {
		return 0, 0, nil, ErrCorrupt
	}
	if err := Verify(raw); err != nil {
		return 0, 0, nil, err
	}
	return rows, cols, raw[12 : len(raw)-4], nil
}

// Verify checks the CRC32 that ends every tile payload, dense or sparse: the
// decoders' last check, and all a reader that holds the decoded form of these
// very bytes still owes each read of them.
func Verify(raw []byte) error {
	end := len(raw) - 4
	if end < 0 || crc32.ChecksumIEEE(raw[:end]) != binary.LittleEndian.Uint32(raw[end:]) {
		return fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return nil
}

// DecodeTile deserializes a dense tile into a fresh tile, verifying the
// checksum.
func DecodeTile(raw []byte) (*linalg.Tile, error) {
	t := new(linalg.Tile)
	if err := DecodeTileInto(t, raw); err != nil {
		return nil, err
	}
	return t, nil
}

// DecodeTileInto is DecodeTile into a tile the caller supplies: t takes the
// payload's shape and every element of it is overwritten, in t's own buffer
// when that has the capacity. On error t is left as it was.
func DecodeTileInto(t *linalg.Tile, raw []byte) error {
	rows, cols, body, err := denseBody(raw)
	if err != nil {
		return err
	}
	t.Rows, t.Cols, t.Data = rows, cols, grow(t.Data, rows*cols)
	getFloats(t.Data, body)
	return nil
}

// grow returns s resized to n elements, reallocating only when its
// capacity falls short. The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// EncodeSparseTile serializes a CSR tile: magic, rows, cols, nnz, rowptr,
// colidx, values, CRC32.
func EncodeSparseTile(t *linalg.CSRTile) []byte {
	nnz := t.NNZ()
	size := 16 + 4*(t.Rows+1) + 4*nnz + 8*nnz + 4
	buf := make([]byte, size)
	binary.LittleEndian.PutUint32(buf[0:], magicSparse)
	binary.LittleEndian.PutUint32(buf[4:], uint32(t.Rows))
	binary.LittleEndian.PutUint32(buf[8:], uint32(t.Cols))
	binary.LittleEndian.PutUint32(buf[12:], uint32(nnz))
	off := 16
	for _, p := range t.RowPtr {
		binary.LittleEndian.PutUint32(buf[off:], uint32(p))
		off += 4
	}
	for _, c := range t.ColIdx {
		binary.LittleEndian.PutUint32(buf[off:], uint32(c))
		off += 4
	}
	putFloats(buf[off:], t.Val)
	off += 8 * nnz
	binary.LittleEndian.PutUint32(buf[off:], crc32.ChecksumIEEE(buf[:off]))
	return buf
}

// DecodeSparseTile deserializes a CSR tile into a fresh tile, verifying
// the checksum and structural invariants (monotone row pointers, in-range
// column indices strictly ascending within each row).
func DecodeSparseTile(raw []byte) (*linalg.CSRTile, error) {
	t := new(linalg.CSRTile)
	if err := DecodeSparseTileInto(t, raw); err != nil {
		return nil, err
	}
	return t, nil
}

// DecodeSparseTileInto is DecodeSparseTile into a tile the caller supplies,
// reusing the capacity of t's slices. A header or checksum failure leaves t
// as it was; a structural one leaves its contents unspecified.
func DecodeSparseTileInto(t *linalg.CSRTile, raw []byte) error {
	if len(raw) < 20 {
		return ErrCorrupt
	}
	if binary.LittleEndian.Uint32(raw[0:]) != magicSparse {
		return ErrBadMagic
	}
	rows := int(binary.LittleEndian.Uint32(raw[4:]))
	cols := int(binary.LittleEndian.Uint32(raw[8:]))
	nnz := int(binary.LittleEndian.Uint32(raw[12:]))
	// As for dense tiles, bound each count by the payload before any
	// arithmetic on it can wrap; a tile cannot store more entries than it
	// has positions.
	if rows <= 0 || cols <= 0 || nnz < 0 || rows > len(raw)/4 || nnz > len(raw)/12 ||
		len(raw) != 16+4*(rows+1)+12*nnz+4 || uint64(nnz) > uint64(rows)*uint64(cols) {
		return ErrCorrupt
	}
	if err := Verify(raw); err != nil {
		return err
	}
	t.Rows, t.Cols = rows, cols
	t.RowPtr, t.ColIdx, t.Val = grow(t.RowPtr, rows+1), grow(t.ColIdx, nnz), grow(t.Val, nnz)
	off := 16
	for i := range t.RowPtr {
		t.RowPtr[i] = int(binary.LittleEndian.Uint32(raw[off:]))
		off += 4
	}
	for i := range t.ColIdx {
		t.ColIdx[i] = int(binary.LittleEndian.Uint32(raw[off:]))
		off += 4
	}
	getFloats(t.Val, raw[off:])
	if t.RowPtr[0] != 0 || t.RowPtr[rows] != nnz {
		return fmt.Errorf("%w: bad row pointers", ErrCorrupt)
	}
	for i := 0; i < rows; i++ {
		if t.RowPtr[i] > t.RowPtr[i+1] {
			return fmt.Errorf("%w: non-monotone row pointers", ErrCorrupt)
		}
	}
	for i := 0; i < rows; i++ {
		prev := -1
		for _, c := range t.ColIdx[t.RowPtr[i]:t.RowPtr[i+1]] {
			if c < 0 || c >= cols {
				return fmt.Errorf("%w: column index out of range", ErrCorrupt)
			}
			// The CSR kernels' ascending-k chains and the scatter of
			// ToDense agree only on one entry per position, in order.
			if c <= prev {
				return fmt.Errorf("%w: column indices of row %d not ascending", ErrCorrupt, i)
			}
			prev = c
		}
	}
	return nil
}
