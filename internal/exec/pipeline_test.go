package exec

import (
	"testing"

	"cumulon/internal/lang"
	"cumulon/internal/linalg"
	"cumulon/internal/plan"
)

// gnmfKLSrc is two KL-divergence GNMF iterations (Lee & Seung's Jacobi
// form): both factor updates read V ./ (W * H) at the same W and H
// versions, so the CSE pass hoists one W*H product per iteration.
const gnmfKLSrc = `
input V 12 10 sparse
input W 12 3
input H 3 10
input U 12 10
Hn = H .* (W' * (V ./ (W * H))) ./ (W' * U)
W = W .* ((V ./ (W * H)) * H') ./ (U * H')
H = Hn
Hn = H .* (W' * (V ./ (W * H))) ./ (W' * U)
W = W .* ((V ./ (W * H)) * H') ./ (U * H')
H = Hn
output W
output H
`

// TestGNMFKLRunsCorrectlyWithCSE executes the KL-divergence GNMF variant
// — whose repeated V⊘(WH) product the CSE pass hoists into a shared
// temporary job — materialized, and checks the outputs against the
// language interpreter oracle on the *original* program. The plan runs
// one mul job fewer per iteration and must still compute the same
// factorization.
func TestGNMFKLRunsCorrectlyWithCSE(t *testing.T) {
	prog, err := lang.Parse(gnmfKLSrc)
	if err != nil {
		t.Fatal(err)
	}
	data := map[string]*linalg.Dense{
		"V": linalg.RandomSparseDense(12, 10, 0.4, 11),
		"W": linalg.RandomDense(12, 3, 12).Map(func(x float64) float64 { return x + 0.5 }),
		"H": linalg.RandomDense(3, 10, 13).Map(func(x float64) float64 { return x + 0.5 }),
		// U is the all-ones matrix in the KL update rule.
		"U": linalg.ConstDense(12, 10, 1),
	}

	e, err := New(Config{
		Cluster:     testCluster(t, 3, 2),
		Materialize: true,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.Compile(prog, plan.Config{TileSize: 4, Densities: map[string]float64{"V": 0.4}})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Rewrites == nil || pl.Rewrites.Chains() != 2 {
		t.Fatalf("expected 2 hoisted chains, got %v", pl.Rewrites)
	}
	pl.AutoSplit(6)
	for _, in := range pl.Inputs {
		if err := e.LoadDense(in, data[in.Name]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Run(pl); err != nil {
		t.Fatal(err)
	}
	want, err := lang.Interpret(prog, data)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"W", "H"} {
		got, err := e.FetchOutput(pl.Outputs[name])
		if err != nil {
			t.Fatal(err)
		}
		if !got.AlmostEqual(want[name], 1e-9) {
			t.Fatalf("output %s off oracle by %g", name, got.MaxAbsDiff(want[name]))
		}
	}
}
