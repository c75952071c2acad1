package plan

import (
	"strings"
	"testing"

	"cumulon/internal/lang"
	"cumulon/internal/store"
)

func leafEnv(names ...string) map[string]LeafRef {
	m := map[string]LeafRef{}
	for _, n := range names {
		m[n] = LeafRef{Meta: store.Meta{Name: n, Rows: 8, Cols: 8, TileSize: 4}}
	}
	return m
}

func TestCompileTileProgramTape(t *testing.T) {
	e, err := lang.ParseExpr("2 * (A + B ./ A)")
	if err != nil {
		t.Fatal(err)
	}
	p, err := CompileTileProgram(e, leafEnv("A", "B"))
	if err != nil {
		t.Fatal(err)
	}
	// Post-order: A B A div add scale — slots numbered by first occurrence.
	wantOps := []TileOp{TileLeaf, TileLeaf, TileLeaf, TileDiv, TileAdd, TileScale}
	if len(p.Code) != len(wantOps) {
		t.Fatalf("tape %s: want %d instrs, got %d", p, len(wantOps), len(p.Code))
	}
	for i, op := range wantOps {
		if p.Code[i].Op != op {
			t.Fatalf("instr %d: want %s, got %s (tape %s)", i, op, p.Code[i].Op, p)
		}
	}
	if len(p.Leaves) != 2 || p.Leaves[0] != "A" || p.Leaves[1] != "B" {
		t.Fatalf("leaf slots: %v", p.Leaves)
	}
	if p.Code[0].Arg != 0 || p.Code[1].Arg != 1 || p.Code[2].Arg != 0 {
		t.Fatalf("slot args: %v", p.Code)
	}
	if p.MaxStack != 3 {
		t.Fatalf("max stack: %d", p.MaxStack)
	}
	if p.NeedsMM {
		t.Fatal("map tape must not need $mm")
	}
	if p.Ops() != 3 {
		t.Fatalf("ops: %d", p.Ops())
	}
	if p.Code[5].Scale != 2 {
		t.Fatalf("scale constant: %v", p.Code[5])
	}
}

// TestCompileTileProgramElemOps: each element-wise operator compiles to
// its own opcode, after both operands.
func TestCompileTileProgramElemOps(t *testing.T) {
	want := map[string]TileOp{"+": TileAdd, "-": TileSub, ".*": TileMul, "./": TileDiv}
	for op := range lang.NumElemOps {
		p, err := CompileTileProgram(lang.Elem{Op: op, L: lang.Var{Name: "A"}, R: lang.Var{Name: "B"}}, leafEnv("A", "B"))
		if err != nil {
			t.Fatal(err)
		}
		w, ok := want[op.String()]
		if !ok || len(p.Code) != 3 || p.Code[2].Op != w {
			t.Errorf("A %s B compiles to %s, want leaf leaf %s", op, p, w)
		}
	}
}

func TestCompileTileProgramMM(t *testing.T) {
	// H ⊙ ($mm ⊘ D): the parser has no surface syntax for the product
	// placeholder, so build the epilogue tree directly.
	e := lang.Elem{
		Op: lang.OpMul,
		L:  lang.Var{Name: "H"},
		R:  lang.Elem{Op: lang.OpDiv, L: lang.Var{Name: MMVar}, R: lang.Var{Name: "D"}},
	}
	p, err := CompileTileProgram(e, leafEnv("H", "D"))
	if err != nil {
		t.Fatal(err)
	}
	if !p.NeedsMM {
		t.Fatalf("epilogue tape %s must need %s", p, MMVar)
	}
	if len(p.Leaves) != 2 || p.Leaves[0] != "H" || p.Leaves[1] != "D" {
		t.Fatalf("leaf slots: %v", p.Leaves)
	}
}

func TestCompileTileProgramErrors(t *testing.T) {
	env := leafEnv("A")
	cases := []struct {
		expr lang.Expr
		want string
	}{
		{lang.Var{Name: "Z"}, "unbound leaf Z"},
		{lang.Apply{Fn: "sinh", X: lang.Var{Name: "A"}}, "unknown function sinh"},
		{lang.Transpose{X: lang.Var{Name: "A"}}, "residual transpose"},
		{lang.MatMul{L: lang.Var{Name: "A"}, R: lang.Var{Name: "A"}}, "unextracted matrix product"},
	}
	for _, tc := range cases {
		_, err := CompileTileProgram(tc.expr, env)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("expr %s: want error containing %q, got %v", tc.expr, tc.want, err)
		}
	}
}

// TestCompilePopulatesPrograms holds Compile to its finalize contract:
// every job of a lowered plan carries compiled tapes for all of its
// expression trees, so the compute layer never falls back per tile.
func TestCompilePopulatesPrograms(t *testing.T) {
	pl := compileSrc(t, `
input V 8 6 sparse
input W 8 4
input H 4 6
H = H .* (W' * V) ./ ((W' * W) * H)
W = 2 * W + sqrt(W)
output W
output H
`, Config{})
	for _, j := range pl.Jobs {
		switch j.Kind {
		case MapKind:
			if j.Prog == nil {
				t.Fatalf("%s: no compiled map tape", j)
			}
			if j.Prog.NeedsMM {
				t.Fatalf("%s: map tape needs %s", j, MMVar)
			}
		case MulKind:
			if j.LProg == nil || j.RProg == nil {
				t.Fatalf("%s: missing prologue tapes", j)
			}
			if (j.Epilogue != nil) != (j.EpiProg != nil) {
				t.Fatalf("%s: epilogue tree/tape mismatch", j)
			}
			if j.EpiProg != nil && !j.EpiProg.NeedsMM {
				t.Fatalf("%s: epilogue tape never reads %s", j, MMVar)
			}
		}
	}
}

// TestCompileRejectsUnknownApplyFn pins satellite #2: a bad scalar
// function name is a plan-compile-time error, not a per-tile runtime
// failure inside a task.
func TestCompileRejectsUnknownApplyFn(t *testing.T) {
	prog := &lang.Program{
		Name:    "badfn",
		Inputs:  []lang.Input{{Name: "A", Rows: 8, Cols: 8}},
		Stmts:   []lang.Assign{{Name: "B", Expr: lang.Apply{Fn: "sinh", X: lang.Var{Name: "A"}}}},
		Outputs: []string{"B"},
	}
	_, err := Compile(prog, Config{TileSize: 4})
	if err == nil || !strings.Contains(err.Error(), "sinh") {
		t.Fatalf("want compile-time unknown-function error, got %v", err)
	}
}
