package store

import (
	"math/rand"
	"testing"

	"cumulon/internal/linalg"
)

func benchTile(n int) *linalg.Tile {
	rng := rand.New(rand.NewSource(1))
	t := linalg.NewTile(n, n)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

func BenchmarkEncodeTile256(b *testing.B) {
	t := benchTile(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeTile(t)
	}
}

func BenchmarkDecodeTile256(b *testing.B) {
	raw := EncodeTile(benchTile(256))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeTile(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSparseCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	t := linalg.NewTile(256, 256)
	for i := range t.Data {
		if rng.Float64() < 0.05 {
			t.Data[i] = rng.NormFloat64()
		}
	}
	sp := linalg.DenseToCSR(t)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw := EncodeSparseTile(sp)
		if _, err := DecodeSparseTile(raw); err != nil {
			b.Fatal(err)
		}
	}
}
