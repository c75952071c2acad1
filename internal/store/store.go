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
	"strconv"

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

// TilePath returns the DFS path of tile (ti, tj) of the matrix.
// It is built on every tile read and write, virtual ones included, so the
// string is assembled in a stack buffer and costs its one allocation.
func (m Meta) TilePath(ti, tj int) string {
	var buf [64]byte
	b := append(buf[:0], "/matrix/"...)
	b = append(b, m.Name...)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(ti), 10)
	b = append(b, '_')
	b = strconv.AppendInt(b, int64(tj), 10)
	return string(b)
}

// MatrixPrefix returns the DFS path prefix under which every tile of
// the named matrix lives.
func MatrixPrefix(name string) string { return "/matrix/" + name + "/" }

// DenseBytes estimates the total stored size of the matrix if dense.
func (m Meta) DenseBytes() int64 { return int64(m.Rows) * int64(m.Cols) * 8 }

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

// WriteTile serializes and stores one dense tile, writer-local on node.
func (s *Store) WriteTile(m Meta, ti, tj int, t *linalg.Tile, node int) error {
	return s.FS.Write(m.TilePath(ti, tj), EncodeTile(t), node)
}

// ReadTile fetches and decodes one dense tile as seen from node.
func (s *Store) ReadTile(m Meta, ti, tj int, node int) (*linalg.Tile, error) {
	raw, err := s.FS.Read(m.TilePath(ti, tj), node)
	if err != nil {
		return nil, err
	}
	return DecodeTile(raw)
}

// WriteSparseTile serializes and stores one CSR tile.
func (s *Store) WriteSparseTile(m Meta, ti, tj int, t *linalg.CSRTile, node int) error {
	return s.FS.Write(m.TilePath(ti, tj), EncodeSparseTile(t), node)
}

// ReadSparseTile fetches and decodes one CSR tile.
func (s *Store) ReadSparseTile(m Meta, ti, tj int, node int) (*linalg.CSRTile, error) {
	raw, err := s.FS.Read(m.TilePath(ti, tj), node)
	if err != nil {
		return nil, err
	}
	return DecodeSparseTile(raw)
}

// DeleteMatrix removes every tile of the matrix. Used to garbage-collect
// intermediates between jobs.
func (s *Store) DeleteMatrix(m Meta) {
	for _, p := range s.FS.List(fmt.Sprintf("/matrix/%s/", m.Name)) {
		s.FS.Delete(p)
	}
}

// SaveDense uploads a dense in-memory matrix tile by tile (as an external
// client: replicas are placed randomly, like an HDFS ingest).
func (s *Store) SaveDense(m Meta, d *linalg.Dense, node int) error {
	if d.Rows != m.Rows || d.Cols != m.Cols {
		return fmt.Errorf("store: matrix %s shape %dx%d does not match meta %dx%d",
			m.Name, d.Rows, d.Cols, m.Rows, m.Cols)
	}
	for ti := 0; ti < m.TileRows(); ti++ {
		for tj := 0; tj < m.TileCols(); tj++ {
			tile := d.TileAt(ti, tj, m.TileSize)
			var err error
			if m.Sparse {
				err = s.WriteSparseTile(m, ti, tj, linalg.DenseToCSR(tile), node)
			} else {
				err = s.WriteTile(m, ti, tj, tile, node)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// LoadDense downloads the whole matrix into a dense in-memory matrix,
// decoding sparse tiles if the matrix is stored sparse.
func (s *Store) LoadDense(m Meta, node int) (*linalg.Dense, error) {
	d := linalg.NewDense(m.Rows, m.Cols)
	for ti := 0; ti < m.TileRows(); ti++ {
		for tj := 0; tj < m.TileCols(); tj++ {
			var tile *linalg.Tile
			if m.Sparse {
				st, err := s.ReadSparseTile(m, ti, tj, node)
				if err != nil {
					return nil, err
				}
				tile = st.ToDense()
			} else {
				t, err := s.ReadTile(m, ti, tj, node)
				if err != nil {
					return nil, err
				}
				tile = t
			}
			d.SetTile(ti, tj, m.TileSize, tile)
		}
	}
	return d, nil
}

// EncodeTile serializes a dense tile: magic, rows, cols, payload, CRC32.
func EncodeTile(t *linalg.Tile) []byte {
	buf := make([]byte, 12+8*len(t.Data)+4)
	binary.LittleEndian.PutUint32(buf[0:], magicDense)
	binary.LittleEndian.PutUint32(buf[4:], uint32(t.Rows))
	binary.LittleEndian.PutUint32(buf[8:], uint32(t.Cols))
	off := 12
	for _, v := range t.Data {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
		off += 8
	}
	binary.LittleEndian.PutUint32(buf[off:], crc32.ChecksumIEEE(buf[:off]))
	return buf
}

// DecodeTile deserializes a dense tile, verifying the checksum.
func DecodeTile(raw []byte) (*linalg.Tile, error) {
	if len(raw) < 16 {
		return nil, ErrCorrupt
	}
	if binary.LittleEndian.Uint32(raw[0:]) != magicDense {
		return nil, ErrBadMagic
	}
	rows := int(binary.LittleEndian.Uint32(raw[4:]))
	cols := int(binary.LittleEndian.Uint32(raw[8:]))
	want := 12 + 8*rows*cols + 4
	if rows <= 0 || cols <= 0 || len(raw) != want {
		return nil, ErrCorrupt
	}
	body := len(raw) - 4
	if crc32.ChecksumIEEE(raw[:body]) != binary.LittleEndian.Uint32(raw[body:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	t := linalg.NewTile(rows, cols)
	off := 12
	for i := range t.Data {
		t.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[off:]))
		off += 8
	}
	return t, nil
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
	for _, v := range t.Val {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
		off += 8
	}
	binary.LittleEndian.PutUint32(buf[off:], crc32.ChecksumIEEE(buf[:off]))
	return buf
}

// DecodeSparseTile deserializes a CSR tile, verifying the checksum and
// structural invariants (monotone row pointers, in-range column indices).
func DecodeSparseTile(raw []byte) (*linalg.CSRTile, error) {
	if len(raw) < 20 {
		return nil, ErrCorrupt
	}
	if binary.LittleEndian.Uint32(raw[0:]) != magicSparse {
		return nil, ErrBadMagic
	}
	rows := int(binary.LittleEndian.Uint32(raw[4:]))
	cols := int(binary.LittleEndian.Uint32(raw[8:]))
	nnz := int(binary.LittleEndian.Uint32(raw[12:]))
	want := 16 + 4*(rows+1) + 4*nnz + 8*nnz + 4
	if rows <= 0 || cols <= 0 || nnz < 0 || len(raw) != want {
		return nil, ErrCorrupt
	}
	body := len(raw) - 4
	if crc32.ChecksumIEEE(raw[:body]) != binary.LittleEndian.Uint32(raw[body:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	t := &linalg.CSRTile{
		Rows:   rows,
		Cols:   cols,
		RowPtr: make([]int, rows+1),
		ColIdx: make([]int, nnz),
		Val:    make([]float64, nnz),
	}
	off := 16
	for i := range t.RowPtr {
		t.RowPtr[i] = int(binary.LittleEndian.Uint32(raw[off:]))
		off += 4
	}
	for i := range t.ColIdx {
		t.ColIdx[i] = int(binary.LittleEndian.Uint32(raw[off:]))
		off += 4
	}
	for i := range t.Val {
		t.Val[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[off:]))
		off += 8
	}
	if t.RowPtr[0] != 0 || t.RowPtr[rows] != nnz {
		return nil, fmt.Errorf("%w: bad row pointers", ErrCorrupt)
	}
	for i := 0; i < rows; i++ {
		if t.RowPtr[i] > t.RowPtr[i+1] {
			return nil, fmt.Errorf("%w: non-monotone row pointers", ErrCorrupt)
		}
	}
	for _, c := range t.ColIdx {
		if c < 0 || c >= cols {
			return nil, fmt.Errorf("%w: column index out of range", ErrCorrupt)
		}
	}
	return t, nil
}
