package dfs

import (
	"fmt"
	"testing"
)

// BenchmarkDeleteMatrix times dropping one declared 8×8-tile matrix
// (DeleteMatrix, as the engine issues it) from a namespace that also holds
// unrelated virtual files: 1 k or 64 k of them in 64 other directories, and
// 4 k of them in 64 or in 4 096 other directories. The cost must follow the
// matrix, not the namespace: CI fails if either larger case takes more than
// 8x its smaller one per delete (a scan of every file takes 64x on the
// first pair, a scan of every directory name 44x on the second). Declaring
// and writing the matrix back is untimed.
func BenchmarkDeleteMatrix(b *testing.B) {
	for _, arm := range []struct {
		name        string
		files, dirs int
	}{
		{"others=1024", 1 << 10, 64},
		{"others=65536", 64 << 10, 64},
		{"dirs=64", 4 << 10, 64},
		{"dirs=4096", 4 << 10, 4 << 10},
	} {
		b.Run(arm.name, func(b *testing.B) {
			fs := New(Config{Nodes: 8, Replication: 3, Seed: 1})
			for i := 0; i < arm.files; i++ {
				if err := fs.WriteVirtual(fmt.Sprintf("/matrix/M%d/%d_0", i%arm.dirs, i/arm.dirs), 100, -1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				bt := fs.Batch()
				bt.Declare(0, "C", 8, 8)
				for i := range 64 {
					if err := bt.WriteVirtual(TileAddr{Matrix: 0, TI: int32(i / 8), TJ: int32(i % 8)}, 100, -1); err != nil {
						b.Fatal(err)
					}
				}
				bt.Done()
				b.StartTimer()
				fs.DeleteMatrix("C")
			}
			b.StopTimer()
			if got := len(fs.List("")); got != arm.files {
				b.Fatalf("%d files left, want %d", got, arm.files)
			}
		})
	}
}

// BenchmarkWriteVirtual times a single-block virtual tile write by address
// into a declared matrix directory, as an engine task's trace replays one:
// one Batch hold writes a 64×64 grid, emptied untimed for the next pass. A
// tile in the grid's extra row keeps the directory alive throughout, so it is
// never dropped and made again. The write is a cell of the directory's grid:
// CI gates it at 0 allocs/op.
func BenchmarkWriteVirtual(b *testing.B) {
	const side = 64
	tile := func(i int) TileAddr { return TileAddr{Matrix: 0, TI: int32(i / side), TJ: int32(i % side)} }
	fs := New(Config{Nodes: 8, Replication: 3, Seed: 1})
	bt := fs.Batch()
	defer bt.Done()
	bt.Declare(0, "C", side+1, side)
	if err := bt.WriteVirtual(tile(side*side), 100, -1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		i := n % (side * side)
		if i == 0 && n > 0 {
			b.StopTimer()
			for j := 0; j < side*side; j++ {
				bt.Delete(tile(j))
			}
			b.StartTimer()
		}
		if err := bt.WriteVirtual(tile(i), 100, n%8); err != nil {
			b.Fatal(err)
		}
	}
}
