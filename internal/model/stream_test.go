package model

import (
	"math"
	"math/rand"
	"testing"
)

// TestCursorMatchesNewSource: every cursor over a memoized stream is
// rand.NewSource(seed), whatever the seed (rngSource reduces it mod 2³¹−1,
// so zero, negatives, seeds ≥ 2³¹ and math.MinInt64 cover the reduction) and
// however the stream's cursors interleave: 1–4 cursors per stream, each
// driving the rand.Rand methods the engine and the DFS call, must return
// exactly what a fresh generator driven the same way does.
func TestCursorMatchesNewSource(t *testing.T) {
	ops := []struct {
		name string
		draw func(r *rand.Rand) float64
	}{
		{"ExpFloat64", (*rand.Rand).ExpFloat64},
		{"NormFloat64", (*rand.Rand).NormFloat64},
		{"Float64", (*rand.Rand).Float64},
		{"Intn(3)", func(r *rand.Rand) float64 { return float64(r.Intn(3)) }},
		{"Intn(1<<40)", func(r *rand.Rand) float64 { return float64(r.Intn(1 << 40)) }},
		{"Int63", func(r *rand.Rand) float64 { return float64(r.Int63()) }},
		{"Uint64", func(r *rand.Rand) float64 { return float64(r.Uint64()) }},
		{"Shuffle", func(r *rand.Rand) float64 {
			p := []int{0, 1, 2, 3, 4, 5}
			r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
			v := 0
			for _, x := range p {
				v = v*6 + x
			}
			return float64(v)
		}},
	}
	drive := rand.New(rand.NewSource(1))
	seeds := []int64{0, 1, -1, -12345, 1<<31 - 1, 1 << 31, 1<<40 + 7, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	var s Suite
	for _, seed := range seeds {
		n := 1 + drive.Intn(4)
		got := make([]*rand.Rand, n)
		want := make([]*rand.Rand, n)
		for c := range got {
			got[c] = rand.New(s.cursor(seed, 0))
			want[c] = rand.New(rand.NewSource(seed))
		}
		for step := 0; step < 3000; step++ {
			c, op := drive.Intn(n), ops[drive.Intn(len(ops))]
			if g, w := op.draw(got[c]), op.draw(want[c]); g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("seed %d, cursor %d of %d, step %d: %s = %v, want %v", seed, c, n, step, op.name, g, w)
			}
		}
	}
	if len(s.streams) != len(seeds) {
		t.Fatalf("%d memoized streams for %d seeds", len(s.streams), len(seeds))
	}
}

// A cursor replays a stream; reseeding one would fork it silently.
func TestCursorSeedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Seed on a cursor did not panic")
		}
	}()
	new(Suite).cursor(1, 0).Seed(2)
}
