package sim

import (
	"testing"

	"cumulon/internal/cloud"
	"cumulon/internal/lang"
	"cumulon/internal/model"
	"cumulon/internal/plan"
)

// BenchmarkOptimizeSplits measures the optimizer's inner loop: a full
// per-job split sweep for a GNMF-sized plan.
func BenchmarkOptimizeSplits(b *testing.B) {
	mt, err := cloud.TypeByName("m1.large")
	if err != nil {
		b.Fatal(err)
	}
	res, err := model.Calibrate(mt, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := cloud.NewCluster(mt, 16, 2)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := lang.Parse(`
input V 80000 40000 sparse
input W 80000 10
input H 10 40000
H = H .* (W' * V) ./ ((W' * W) * H)
W = W .* (V * H') ./ (W * (H * H'))
output W
output H
`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl, err := plan.Compile(prog, plan.Config{TileSize: 2048, Densities: map[string]float64{"V": 0.05}})
		if err != nil {
			b.Fatal(err)
		}
		New(res.Model, cl).OptimizeSplits(pl, 0)
	}
}
