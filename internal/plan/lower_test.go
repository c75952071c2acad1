package plan

import (
	"strings"
	"testing"

	"cumulon/internal/lang"
	"cumulon/internal/testutil"
)

func compileSrc(t *testing.T, src string, cfg Config) *Plan {
	t.Helper()
	p, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.TileSize == 0 {
		cfg.TileSize = 4
	}
	pl, err := Compile(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestCompileBareMatMul(t *testing.T) {
	pl := compileSrc(t, `
input A 10 6
input B 6 8
C = A * B
output C
`, Config{})
	if len(pl.Jobs) != 1 {
		t.Fatalf("want 1 job, got %d:\n%s", len(pl.Jobs), pl)
	}
	j := pl.Jobs[0]
	if j.Kind != MulKind || j.Epilogue != nil {
		t.Fatalf("want bare mul job: %+v", j)
	}
	if j.KSize != 6 {
		t.Fatalf("ksize: %d", j.KSize)
	}
	if j.Out.Rows != 10 || j.Out.Cols != 8 {
		t.Fatalf("out shape: %dx%d", j.Out.Rows, j.Out.Cols)
	}
	if pl.Outputs["C"].Name != j.Out.Name {
		t.Fatalf("output binding: %v", pl.Outputs)
	}
}

func TestCompileEpilogueFusion(t *testing.T) {
	// One matmul under element-wise operators fuses into a single job.
	pl := compileSrc(t, `
input H 5 30
input W 40 5
input V 40 30
H = H .* (W' * V)
output H
`, Config{})
	if len(pl.Jobs) != 1 {
		t.Fatalf("want 1 fused job, got %d:\n%s", len(pl.Jobs), pl)
	}
	j := pl.Jobs[0]
	if j.Kind != MulKind {
		t.Fatalf("want mul job, got %s", j.Kind)
	}
	if j.Epilogue == nil {
		t.Fatal("epilogue not fused")
	}
	if !strings.Contains(j.Epilogue.String(), MMVar) {
		t.Fatalf("epilogue %s lacks %s", j.Epilogue, MMVar)
	}
	// The left prologue reads W transposed without a transpose job.
	lref, ok := BareLeaf(j.LExpr, j.Leaves)
	if !ok || !lref.Transposed || lref.Meta.Name != "W" {
		t.Fatalf("left prologue: %s leaves %v", j.LExpr, j.Leaves)
	}
}

func TestCompileTwoMatMulsMaterialize(t *testing.T) {
	// Two products under one element-wise tree: each materializes, plus a
	// combining map job.
	pl := compileSrc(t, `
input A 6 6
input B 6 6
C = (A * B) .* (B * A)
output C
`, Config{})
	if len(pl.Jobs) != 3 {
		t.Fatalf("want 3 jobs, got %d:\n%s", len(pl.Jobs), pl)
	}
	kinds := map[JobKind]int{}
	for _, j := range pl.Jobs {
		kinds[j.Kind]++
	}
	if kinds[MulKind] != 2 || kinds[MapKind] != 1 {
		t.Fatalf("kinds: %v", kinds)
	}
	final := pl.Jobs[2]
	if final.Kind != MapKind || len(final.Deps) != 2 {
		t.Fatalf("final job: %+v", final)
	}
}

func TestCompileNestedMatMul(t *testing.T) {
	// W * (H * H'): inner product materializes, outer is a mul job.
	pl := compileSrc(t, `
input W 40 5
input H 5 30
X = W * (H * H')
output X
`, Config{})
	if len(pl.Jobs) != 2 {
		t.Fatalf("want 2 jobs, got %d:\n%s", len(pl.Jobs), pl)
	}
	inner, outer := pl.Jobs[0], pl.Jobs[1]
	if inner.Kind != MulKind || outer.Kind != MulKind {
		t.Fatalf("kinds: %s %s", inner.Kind, outer.Kind)
	}
	if inner.Out.Rows != 5 || inner.Out.Cols != 5 {
		t.Fatalf("inner out: %dx%d", inner.Out.Rows, inner.Out.Cols)
	}
	if len(outer.Deps) != 1 || outer.Deps[0] != inner.ID {
		t.Fatalf("outer deps: %v", outer.Deps)
	}
}

func TestCompileIdentityAssignment(t *testing.T) {
	pl := compileSrc(t, `
input A 7 7
B = A
output B
`, Config{})
	if len(pl.Jobs) != 1 || pl.Jobs[0].Kind != MapKind {
		t.Fatalf("plan: %s", pl)
	}
}

func TestCompileVersioning(t *testing.T) {
	pl := compileSrc(t, `
input A 4 4
X = A
X = X .* X
X = X .* X
output X
`, Config{})
	if len(pl.Jobs) != 3 {
		t.Fatalf("want 3 jobs:\n%s", pl)
	}
	names := map[string]bool{}
	for _, j := range pl.Jobs {
		if names[j.Out.Name] {
			t.Fatalf("duplicate output matrix name %s", j.Out.Name)
		}
		names[j.Out.Name] = true
	}
	if pl.Outputs["X"].Name != "X#3" {
		t.Fatalf("final version: %s", pl.Outputs["X"].Name)
	}
	// Each reassignment depends on the previous version.
	if len(pl.Jobs[2].Deps) != 1 || pl.Jobs[2].Deps[0] != 1 {
		t.Fatalf("version deps: %v", pl.Jobs[2].Deps)
	}
}

func TestCompileSparseInput(t *testing.T) {
	pl := compileSrc(t, `
input V 30 30 sparse
input H 30 5
X = V * H
output X
`, Config{Densities: map[string]float64{"V": 0.05}})
	j := pl.Jobs[0]
	ref, ok := BareLeaf(j.LExpr, j.Leaves)
	if !ok || !ref.Meta.Sparse {
		t.Fatalf("left leaf not sparse: %v", j.Leaves)
	}
	if ref.Meta.EffDensity() != 0.05 {
		t.Fatalf("density: %v", ref.Meta.EffDensity())
	}
	// Sparse matmul estimates far fewer flops than dense.
	flops := profileTotal(j).Flops
	dense := 2 * int64(30) * 30 * 5
	if flops >= dense/2 {
		t.Fatalf("sparse flops %d not discounted vs dense %d", flops, dense)
	}
}

func TestCompileDisableFusion(t *testing.T) {
	src := `
input H 5 30
input W 40 5
input V 40 30
H = H .* (W' * V)
output H
`
	fused := compileSrc(t, src, Config{})
	unfused := compileSrc(t, src, Config{DisableFusion: true})
	if len(unfused.Jobs) <= len(fused.Jobs) {
		t.Fatalf("disabling fusion should add jobs: %d vs %d", len(unfused.Jobs), len(fused.Jobs))
	}
	for _, j := range unfused.Jobs {
		if j.Epilogue != nil {
			t.Fatalf("unfused plan has epilogue: %s", j)
		}
	}
}

func TestCompileDedupLeaves(t *testing.T) {
	pl := compileSrc(t, `
input A 6 6
B = A .* A + A
output B
`, Config{})
	j := pl.Jobs[0]
	if len(j.Leaves) != 1 {
		t.Fatalf("A should bind once, got leaves %v", j.Leaves)
	}
}

func TestCompileRejectsBadPrograms(t *testing.T) {
	p := &lang.Program{
		Inputs:  []lang.Input{{Name: "A", Rows: 2, Cols: 3}},
		Stmts:   []lang.Assign{{Name: "B", Expr: lang.MatMul{L: lang.Var{Name: "A"}, R: lang.Var{Name: "A"}}}},
		Outputs: []string{"B"},
	}
	if _, err := Compile(p, Config{TileSize: 2}); err == nil {
		t.Fatal("want shape error")
	}
	good := &lang.Program{
		Inputs:  []lang.Input{{Name: "A", Rows: 2, Cols: 2}},
		Stmts:   []lang.Assign{{Name: "B", Expr: lang.Var{Name: "A"}}},
		Outputs: []string{"B"},
	}
	if _, err := Compile(good, Config{TileSize: 0}); err == nil {
		t.Fatal("want tile-size error")
	}
}

func TestCompileTopoOrder(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		g := testutil.NewGen(seed)
		prog := g.Program("rand", 3, 3)
		pl, err := Compile(prog, Config{TileSize: 4})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := pl.TopoOrder(); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, pl)
		}
		for _, j := range pl.Jobs {
			for _, d := range j.Deps {
				if d >= j.ID {
					t.Fatalf("seed %d: job %d depends on later job %d", seed, j.ID, d)
				}
			}
		}
	}
}

func TestIntermediates(t *testing.T) {
	pl := compileSrc(t, `
input A 6 6
B = (A * A) .* (A * A')
output B
`, Config{})
	inter := pl.Intermediates()
	if len(inter) != 2 {
		t.Fatalf("want 2 intermediates, got %v", inter)
	}
}

func TestAutoSplit(t *testing.T) {
	pl := compileSrc(t, `
input A 64 64
input B 64 64
C = A * B
output C
`, Config{TileSize: 4})
	pl.AutoSplit(8)
	j := pl.Jobs[0]
	if err := j.Split.Validate(j); err != nil {
		t.Fatal(err)
	}
	if j.Split.Tasks() < 8 {
		t.Fatalf("too few tasks for 8 slots: %v", j.Split)
	}
	if j.Split.Tasks() > 4*8+16 {
		t.Fatalf("too many tasks: %v", j.Split)
	}
}

func TestAutoSplitSkinnyOutputUsesK(t *testing.T) {
	// Wᵀ·W is r x r (1 tile) with a tall K: parallelism must come from CK.
	pl := compileSrc(t, `
input W 512 4
C = W' * W
output C
`, Config{TileSize: 4})
	pl.AutoSplit(16)
	j := pl.Jobs[0]
	if j.Split.CK <= 1 {
		t.Fatalf("skinny product should split K: %v (ktiles=%d)", j.Split, j.KTiles())
	}
}

func TestSplitCandidates(t *testing.T) {
	pl := compileSrc(t, `
input A 64 64
input B 64 64
C = A * B
output C
`, Config{TileSize: 4})
	j := pl.Jobs[0]
	cands := AppendSplitCandidates(nil, j, 1000)
	if len(cands) < 10 {
		t.Fatalf("too few candidates: %d", len(cands))
	}
	for _, s := range cands {
		if err := s.Validate(j); err != nil {
			t.Fatalf("candidate %v invalid: %v", s, err)
		}
		if s.Tasks() > 1000 {
			t.Fatalf("candidate %v exceeds task cap", s)
		}
	}
}

func TestEstTaskMemShrinksWithSplit(t *testing.T) {
	pl := compileSrc(t, `
input A 64 64
input B 64 64
C = A * B
output C
`, Config{TileSize: 4})
	j := pl.Jobs[0]
	j.Split = Split{CI: 1, CJ: 1, CK: 1}
	big := TaskFootprint(Profile(j))
	j.Split = Split{CI: 4, CJ: 4, CK: 4}
	small := TaskFootprint(Profile(j))
	if small >= big {
		t.Fatalf("mem should shrink with finer splits: %d vs %d", small, big)
	}
}

// GNMF's W' * V holds V at its stored size: sparse at 5 % density, its
// task footprint is below the dense one's.
func TestTaskFootprintSparseBelowDense(t *testing.T) {
	footprint := func(v string) int64 {
		pl := compileSrc(t, "input V 400 300"+v+`
input W 400 10
input H 10 300
H = H .* (W' * V) ./ ((W' * W) * H)
output H
`, Config{TileSize: 100, Densities: map[string]float64{"V": 0.05}})
		pl.AutoSplit(8)
		for _, j := range pl.Jobs {
			for _, ref := range j.Leaves {
				if ref.Meta.Name == "V" {
					return TaskFootprint(Profile(j))
				}
			}
		}
		t.Fatal("no job reads V")
		return 0
	}
	if sparse, dense := footprint(" sparse"), footprint(""); sparse >= dense {
		t.Fatalf("W' * V footprint with V sparse %d B, dense %d B", sparse, dense)
	}
}

func TestCompileMaskedMultiply(t *testing.T) {
	pl := compileSrc(t, `
input V 40 30 sparse
input W 40 5
input H 5 30
R = mask(V, W * H)
output R
`, Config{Densities: map[string]float64{"V": 0.1}})
	if len(pl.Jobs) != 1 {
		t.Fatalf("want 1 masked job, got %d:\n%s", len(pl.Jobs), pl)
	}
	j := pl.Jobs[0]
	if j.Kind != MulKind || j.MaskLeaf == "" {
		t.Fatalf("not a masked mul job: %+v", j)
	}
	if !j.Leaves[j.MaskLeaf].Meta.Sparse {
		t.Fatal("mask leaf not sparse")
	}
	out := pl.Outputs["R"]
	if !out.Sparse || out.EffDensity() != 0.1 {
		t.Fatalf("masked output meta: %+v", out)
	}
	// Work estimate scales with the pattern density, not the dense product.
	flops := profileTotal(j).Flops
	dense := 2 * int64(40) * 5 * 30
	if flops > dense/4 {
		t.Fatalf("masked flops %d not discounted (dense %d)", flops, dense)
	}
}

func TestCompileMaskRejectsNonRoot(t *testing.T) {
	p, err := lang.Parse(`
input V 10 10 sparse
input W 10 2
input H 2 10
R = V - mask(V, W * H)
output R
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(p, Config{TileSize: 4}); err == nil {
		t.Fatal("nested mask should be rejected")
	}
}

func TestCompileMaskRejectsNonProduct(t *testing.T) {
	p, err := lang.Parse(`
input V 10 10 sparse
input D 10 10
R = mask(V, D .* D)
output R
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(p, Config{TileSize: 4}); err == nil {
		t.Fatal("mask of a non-product should be rejected")
	}
}

func TestMaskedSplitCandidatesNoKSplit(t *testing.T) {
	pl := compileSrc(t, `
input V 64 64 sparse
input W 64 8
input H 8 64
R = mask(V, W * H)
output R
`, Config{TileSize: 4, Densities: map[string]float64{"V": 0.1}})
	j := pl.Jobs[0]
	for _, s := range AppendSplitCandidates(nil, j, 1000) {
		if s.CK != 1 {
			t.Fatalf("masked job offered k-split %v", s)
		}
	}
	pl.AutoSplit(64)
	if j.Split.CK != 1 {
		t.Fatalf("autosplit gave masked job ck=%d", j.Split.CK)
	}
}

func TestToDOT(t *testing.T) {
	pl := compileSrc(t, `
input A 8 8
input B 8 8
C = (A * B) .* (B * A)
output C
`, Config{})
	dot := pl.ToDOT()
	for _, want := range []string{"digraph plan", "m:A", "m:B", "j0", "j1", "j2", "o:C", "->"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, dot)
		}
	}
	// Two producers feed the combining job.
	if strings.Count(dot, "-> \"j2\"") != 2 {
		t.Fatalf("combining job should have two in-edges:\n%s", dot)
	}
}
