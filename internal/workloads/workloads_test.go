package workloads

import (
	"math"
	"testing"

	"cumulon/internal/cloud"
	"cumulon/internal/core"
	"cumulon/internal/lang"
	"cumulon/internal/linalg"
	"cumulon/internal/plan"
)

func TestAllWorkloadsValidate(t *testing.T) {
	ws := []Workload{
		GNMF(40, 30, 5, 2, 0.1),
		RSVD(50, 30, 5, 2),
		Regression(60, 8, 3, 0.001),
		MatMulChain([]int{10, 20, 5, 8}),
		MatMul(16, 16, 16),
	}
	for _, w := range ws {
		if _, err := w.Prog.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}

// gnmfReference computes one multiplicative update directly.
func gnmfReference(v, w, h *linalg.Dense) (*linalg.Dense, *linalg.Dense) {
	wt := w.T()
	h2 := h.ElemMul(wt.Mul(v)).ElemDiv(wt.Mul(w).Mul(h))
	h2t := h2.T()
	w2 := w.ElemMul(v.Mul(h2t)).ElemDiv(w.Mul(h2.Mul(h2t)))
	return w2, h2
}

func TestGNMFMatchesReferenceUpdate(t *testing.T) {
	wl := GNMF(20, 15, 4, 1, 0.3)
	data := core.RandomInputs(wl.Prog, plan.Config{Densities: wl.Densities}, 5)
	out, err := lang.Interpret(wl.Prog, data)
	if err != nil {
		t.Fatal(err)
	}
	wantW, wantH := gnmfReference(data["V"], data["W"], data["H"])
	if !out["H"].AlmostEqual(wantH, 1e-9) {
		t.Fatal("H update mismatch")
	}
	if !out["W"].AlmostEqual(wantW, 1e-9) {
		t.Fatal("W update mismatch")
	}
}

func TestGNMFReducesReconstructionError(t *testing.T) {
	frob := func(v, w, h *linalg.Dense) float64 { return v.Sub(w.Mul(h)).FrobeniusNorm() }
	wl1 := GNMF(30, 25, 4, 1, 0.5)
	wl8 := GNMF(30, 25, 4, 8, 0.5)
	data := core.RandomInputs(wl1.Prog, plan.Config{Densities: wl1.Densities}, 7)
	before := frob(data["V"], data["W"], data["H"])
	out1, err := lang.Interpret(wl1.Prog, data)
	if err != nil {
		t.Fatal(err)
	}
	after1 := frob(data["V"], out1["W"], out1["H"])
	out8, err := lang.Interpret(wl8.Prog, data)
	if err != nil {
		t.Fatal(err)
	}
	after8 := frob(data["V"], out8["W"], out8["H"])
	if !(after8 < after1 && after1 < before) {
		t.Fatalf("GNMF not converging: %.4f -> %.4f -> %.4f", before, after1, after8)
	}
}

func TestRegressionConverges(t *testing.T) {
	// Synthetic well-conditioned problem: y = X wTrue.
	n, d := 80, 5
	x := linalg.RandomDense(n, d, 11)
	wTrue := linalg.RandomDense(d, 1, 12)
	y := x.Mul(wTrue)

	loss := func(w *linalg.Dense) float64 { return x.Mul(w).Sub(y).FrobeniusNorm() }
	w0 := linalg.NewDense(d, 1)

	wl := Regression(n, d, 50, 0.01)
	out, err := lang.Interpret(wl.Prog, map[string]*linalg.Dense{"X": x, "y": y, "w": w0})
	if err != nil {
		t.Fatal(err)
	}
	if got, init := loss(out["w"]), loss(w0); got > init*0.05 {
		t.Fatalf("gradient descent barely converged: %v -> %v", init, got)
	}
}

func TestRSVDCapturesDominantDirection(t *testing.T) {
	// A = u vᵀ + noise has one dominant direction u; RSVD's sketch B must
	// be strongly correlated with u.
	m, n := 60, 40
	u := linalg.RandomDense(m, 1, 21)
	v := linalg.RandomDense(n, 1, 22)
	a := u.Mul(v.T())
	noise := linalg.RandomDense(m, n, 23).Scale(0.01)
	a = a.Add(noise)

	wl := RSVD(m, n, 3, 2)
	omega := linalg.RandomDense(n, 3, 24)
	out, err := lang.Interpret(wl.Prog, map[string]*linalg.Dense{"A": a, "Omega": omega})
	if err != nil {
		t.Fatal(err)
	}
	b := out["B"]
	// cos angle between u and the first sketch column.
	var dot, nu, nb float64
	for i := 0; i < m; i++ {
		dot += u.At(i, 0) * b.At(i, 0)
		nu += u.At(i, 0) * u.At(i, 0)
		nb += b.At(i, 0) * b.At(i, 0)
	}
	cos := math.Abs(dot) / math.Sqrt(nu*nb)
	if cos < 0.99 {
		t.Fatalf("sketch not aligned with dominant direction: cos=%.4f", cos)
	}
}

func TestMatMulChainStructure(t *testing.T) {
	wl := MatMulChain([]int{100, 2, 100, 1})
	if len(wl.Prog.Inputs) != 3 {
		t.Fatalf("inputs: %d", len(wl.Prog.Inputs))
	}
	shapes, err := wl.Prog.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if sh := shapes["C"]; sh.Rows != 100 || sh.Cols != 1 {
		t.Fatalf("chain output shape: %v", sh)
	}
}

func TestRandomInputsDensity(t *testing.T) {
	wl := GNMF(100, 100, 5, 1, 0.1)
	data := core.RandomInputs(wl.Prog, plan.Config{Densities: wl.Densities}, 9)
	nnz := 0
	for _, x := range data["V"].Data {
		if x != 0 {
			nnz++
		}
	}
	got := float64(nnz) / float64(len(data["V"].Data))
	if got < 0.05 || got > 0.15 {
		t.Fatalf("V density %v far from 0.1", got)
	}
	for _, x := range data["W"].Data {
		if x <= 0 {
			t.Fatal("dense inputs must be positive for GNMF")
		}
	}
}

func TestIterationsUnroll(t *testing.T) {
	if got := len(GNMF(10, 10, 2, 5, 0.5).Prog.Stmts); got != 10 {
		t.Fatalf("gnmf stmts: %d", got)
	}
	if got := len(RSVD(10, 10, 2, 3).Prog.Stmts); got != 4 {
		t.Fatalf("rsvd stmts: %d", got)
	}
	if got := len(Regression(10, 3, 7, 0.1).Prog.Stmts); got != 7 {
		t.Fatalf("regression stmts: %d", got)
	}
}

func TestPageRankConverges(t *testing.T) {
	// Node j links to j+1 and back to 0, half its rank each: every column
	// of P sums to 1. All rank starts on node 0.
	n := 60
	p, x := linalg.NewDense(n, n), linalg.NewDense(n, 1)
	for j := 0; j < n; j++ {
		p.Data[(j+1)%n*n+j] = 0.5
		p.Data[j] += 0.5
	}
	x.Data[0] = 1
	inputs := map[string]*linalg.Dense{"P": p, "x": x, "v": linalg.ConstDense(n, 1, 1/float64(n))}
	wl20 := PageRank(n, 20, 0.1, 0.85)
	out20, err := lang.Interpret(wl20.Prog, inputs)
	if err != nil {
		t.Fatal(err)
	}
	x20 := out20["x"]
	// A probability vector...
	sum := 0.0
	for _, v := range x20.Data {
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("rank vector sums to %v", sum)
	}
	// ...that is a fixed point: one more iteration barely moves it.
	wl21 := PageRank(n, 21, 0.1, 0.85)
	out21, err := lang.Interpret(wl21.Prog, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if diff := x20.MaxAbsDiff(out21["x"]); diff > 1e-2*0.85 {
		t.Fatalf("not converged: step moves %v", diff)
	}
}

func TestPageRankOnEngine(t *testing.T) {
	wl := PageRank(40, 5, 0.15, 0.85)
	inputs := core.RandomInputs(wl.Prog, plan.Config{Densities: wl.Densities}, 9)
	sess := core.NewSession(3)
	mt, _ := cloud.TypeByName("m1.large")
	cl, _ := cloud.NewCluster(mt, 3, 2)
	res, err := sess.Run(wl.Prog, plan.Config{TileSize: 8, Densities: wl.Densities},
		core.ExecOptions{Cluster: cl, Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}
	want, err := lang.Interpret(wl.Prog, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outputs["x"].AlmostEqual(want["x"], 1e-9) {
		t.Fatal("engine PageRank mismatch vs interpreter")
	}
}
