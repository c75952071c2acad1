package dfs

import (
	"fmt"
	"testing"
)

// BenchmarkDeleteMatrix times dropping one 64-tile matrix (DeletePrefix of
// its directory, as store.DeleteMatrix issues it) from a namespace that
// also holds 1 k or 64 k unrelated virtual files in 64 other directories.
// The cost must follow the matrix, not the namespace: CI fails if the 64 k
// case takes more than 8x the 1 k case per delete (a scan of every file
// takes 64x). Writing the matrix back is untimed.
func BenchmarkDeleteMatrix(b *testing.B) {
	for _, others := range []int{1 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("others=%d", others), func(b *testing.B) {
			fs := New(Config{Nodes: 8, Replication: 3, Seed: 1})
			for i := 0; i < others; i++ {
				if err := fs.WriteVirtual(fmt.Sprintf("/matrix/M%d/%d_0", i%64, i/64), 100, -1); err != nil {
					b.Fatal(err)
				}
			}
			tiles := make([]string, 64)
			for i := range tiles {
				tiles[i] = fmt.Sprintf("/matrix/C/%d_%d", i/8, i%8)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				for _, p := range tiles {
					if err := fs.WriteVirtual(p, 100, -1); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				fs.DeletePrefix("/matrix/C/")
			}
			b.StopTimer()
			if got := len(fs.List("")); got != others {
				b.Fatalf("%d files left, want %d", got, others)
			}
		})
	}
}
