package lang

import (
	"fmt"
	"strings"
	"testing"

	"cumulon/internal/linalg"
)

const gnmfSrc = `
program gnmf
input V 40 30 sparse
input W 40 5
input H 5 30
# one multiplicative-update iteration
WV = W' * V
WWH = (W' * W) * H
H = H .* WV ./ WWH
VH = V * H'
WHH = W * (H * H')
W = W .* VH ./ WHH
output W
output H
`

func TestParseGNMF(t *testing.T) {
	p, err := Parse(gnmfSrc)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "gnmf" {
		t.Fatalf("name: %q", p.Name)
	}
	if len(p.Inputs) != 3 || !p.Inputs[0].Sparse || p.Inputs[1].Sparse {
		t.Fatalf("inputs: %+v", p.Inputs)
	}
	if len(p.Stmts) != 6 || len(p.Outputs) != 2 {
		t.Fatalf("stmts=%d outputs=%d", len(p.Stmts), len(p.Outputs))
	}
	shapes, err := p.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if sh := shapes["H"]; sh.Rows != 5 || sh.Cols != 30 {
		t.Fatalf("H shape: %v", sh)
	}
	if sh := shapes["VH"]; sh.Rows != 40 || sh.Cols != 5 {
		t.Fatalf("VH shape: %v", sh)
	}
}

func TestParseExprPrecedence(t *testing.T) {
	e, err := ParseExpr("A + B * C")
	if err != nil {
		t.Fatal(err)
	}
	add, ok := e.(Add)
	if !ok {
		t.Fatalf("top node %T", e)
	}
	if _, ok := add.R.(MatMul); !ok {
		t.Fatalf("'*' should bind tighter than '+': %s", e)
	}
}

func TestParseExprTranspose(t *testing.T) {
	e, err := ParseExpr("A' * B")
	if err != nil {
		t.Fatal(err)
	}
	mm := e.(MatMul)
	if _, ok := mm.L.(Transpose); !ok {
		t.Fatalf("left of * should be transpose: %s", e)
	}
	// Double transpose parses.
	e2, err := ParseExpr("A''")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e2.(Transpose).X.(Transpose); !ok {
		t.Fatalf("A'' should nest: %s", e2)
	}
	// Transpose of a parenthesized expression.
	e3, err := ParseExpr("(A * B)'")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e3.(Transpose); !ok {
		t.Fatalf("(A*B)' should be transpose: %s", e3)
	}
}

func TestParseScalar(t *testing.T) {
	e, err := ParseExpr("0.5 * A + 2e-3 * B")
	if err != nil {
		t.Fatal(err)
	}
	add := e.(Add)
	if s := add.L.(Scale); s.S != 0.5 {
		t.Fatalf("left scalar: %v", s.S)
	}
	if s := add.R.(Scale); s.S != 2e-3 {
		t.Fatalf("right scalar: %v", s.S)
	}
}

func TestParseFunc(t *testing.T) {
	e, err := ParseExpr("exp(A .* B)")
	if err != nil {
		t.Fatal(err)
	}
	ap := e.(Apply)
	if ap.Fn != "exp" {
		t.Fatalf("fn: %s", ap.Fn)
	}
	if _, err := ParseExpr("frobnicate(A)"); err == nil {
		t.Fatal("unknown function should fail")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"A +",
		"* A",
		"(A",
		"A ) B",
		"3 A",   // scalar without '*'
		"A $ B", // bad character
		"2.5",   // bare scalar is not a matrix expression
	}
	for _, src := range bad {
		if _, err := ParseExpr(src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

func TestParseProgramErrors(t *testing.T) {
	bad := []string{
		"input A x 3\nA = A\noutput A",
		"input A 2 2 fuzzy\noutput A",
		"input A 2 2\nnonsense line\noutput A",
		"input A 2 2\noutput 7up&down",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected program parse error for %q", src)
		}
	}
}

func TestValidateCatchesShapeErrors(t *testing.T) {
	p := &Program{
		Inputs:  []Input{{Name: "A", Rows: 3, Cols: 4}, {Name: "B", Rows: 3, Cols: 4}},
		Stmts:   []Assign{{Name: "C", Expr: MatMul{L: Var{"A"}, R: Var{"B"}}}},
		Outputs: []string{"C"},
	}
	if _, err := p.Validate(); err == nil || !strings.Contains(err.Error(), "inner dimensions") {
		t.Fatalf("want inner-dimension error, got %v", err)
	}
}

func TestValidateCatchesUndefined(t *testing.T) {
	p := &Program{
		Inputs:  []Input{{Name: "A", Rows: 2, Cols: 2}},
		Stmts:   []Assign{{Name: "C", Expr: Add{L: Var{"A"}, R: Var{"Z"}}}},
		Outputs: []string{"C"},
	}
	if _, err := p.Validate(); err == nil || !strings.Contains(err.Error(), "undefined") {
		t.Fatalf("want undefined-variable error, got %v", err)
	}
}

func TestValidateReassignShapeChange(t *testing.T) {
	p := &Program{
		Inputs: []Input{{Name: "A", Rows: 2, Cols: 3}},
		Stmts: []Assign{
			{Name: "B", Expr: Var{"A"}},
			{Name: "B", Expr: Transpose{X: Var{"A"}}},
		},
		Outputs: []string{"B"},
	}
	if _, err := p.Validate(); err == nil || !strings.Contains(err.Error(), "reassigns") {
		t.Fatalf("want reassignment error, got %v", err)
	}
}

func TestValidateRequiresOutputs(t *testing.T) {
	p := &Program{Inputs: []Input{{Name: "A", Rows: 1, Cols: 1}}}
	if _, err := p.Validate(); err == nil {
		t.Fatal("want no-outputs error")
	}
	p.Outputs = []string{"missing"}
	if _, err := p.Validate(); err == nil {
		t.Fatal("want undefined-output error")
	}
}

func TestRoundTripStringParse(t *testing.T) {
	p, err := Parse(gnmfSrc)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Parse(p.String())
	if err != nil {
		t.Fatalf("reparse of %q: %v", p.String(), err)
	}
	if len(p2.Stmts) != len(p.Stmts) || len(p2.Inputs) != len(p.Inputs) {
		t.Fatal("round trip changed program structure")
	}
	if p.Stmts[2].Expr.String() != p2.Stmts[2].Expr.String() {
		t.Fatalf("expr mismatch: %s vs %s", p.Stmts[2].Expr, p2.Stmts[2].Expr)
	}
}

func TestInterpretSimple(t *testing.T) {
	src := `
input A 4 3
input B 3 5
C = A * B
D = C .* C - 2 * C
output D
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a := linalg.RandomDense(4, 3, 1)
	b := linalg.RandomDense(3, 5, 2)
	out, err := Interpret(p, map[string]*linalg.Dense{"A": a, "B": b})
	if err != nil {
		t.Fatal(err)
	}
	c := a.Mul(b)
	want := c.ElemMul(c).Sub(c.Scale(2))
	if !out["D"].AlmostEqual(want, 1e-12) {
		t.Fatal("interpreter result mismatch")
	}
}

func TestInterpretTransposeAndFuncs(t *testing.T) {
	src := `
input A 3 4
B = sqrt(abs(A' * A))
output B
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a := linalg.RandomDense(3, 4, 9)
	out, err := Interpret(p, map[string]*linalg.Dense{"A": a})
	if err != nil {
		t.Fatal(err)
	}
	want := a.T().Mul(a).Map(Funcs["abs"]).Map(Funcs["sqrt"])
	if !out["B"].AlmostEqual(want, 1e-12) {
		t.Fatal("interpreter transpose/func mismatch")
	}
}

func TestInterpretInputValidation(t *testing.T) {
	p, err := Parse("input A 2 2\nB = A\noutput B")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Interpret(p, nil); err == nil {
		t.Fatal("want missing-input error")
	}
	if _, err := Interpret(p, map[string]*linalg.Dense{"A": linalg.NewDense(3, 2)}); err == nil {
		t.Fatal("want shape error")
	}
}

func TestInterpretIterativeReassignment(t *testing.T) {
	// x_{k+1} = 0.5 * x_k, three times: x = A / 8.
	src := `
input A 2 2
X = A
X = 0.5 * X
X = 0.5 * X
X = 0.5 * X
output X
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a := linalg.RandomDense(2, 2, 3)
	out, err := Interpret(p, map[string]*linalg.Dense{"A": a})
	if err != nil {
		t.Fatal(err)
	}
	if !out["X"].AlmostEqual(a.Scale(0.125), 1e-12) {
		t.Fatal("iterative reassignment mismatch")
	}
}

func TestParseMask(t *testing.T) {
	e, err := ParseExpr("mask(V, W * H)")
	if err != nil {
		t.Fatal(err)
	}
	m, ok := e.(Mask)
	if !ok {
		t.Fatalf("top node %T", e)
	}
	if _, ok := m.X.(MatMul); !ok {
		t.Fatalf("mask value: %s", m.X)
	}
	// Render round trip.
	e2, err := ParseExpr(e.String())
	if err != nil {
		t.Fatal(err)
	}
	if e2.String() != e.String() {
		t.Fatalf("round trip: %s vs %s", e2, e)
	}
	// Errors.
	for _, bad := range []string{"mask(V)", "mask(V, )", "mask(, X)", "mask V"} {
		if _, err := ParseExpr(bad); err == nil {
			t.Errorf("expected parse error for %q", bad)
		}
	}
}

func TestMaskShapeChecking(t *testing.T) {
	env := map[string]Shape{
		"V": {Rows: 4, Cols: 5, Sparse: true},
		"D": {Rows: 4, Cols: 5},
		"W": {Rows: 4, Cols: 2},
		"H": {Rows: 2, Cols: 5},
	}
	e, _ := ParseExpr("mask(V, W * H)")
	sh, err := InferShape(e, env)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Rows != 4 || sh.Cols != 5 || !sh.Sparse {
		t.Fatalf("mask shape: %v", sh)
	}
	// Dense pattern rejected.
	e2, _ := ParseExpr("mask(D, W * H)")
	if _, err := InferShape(e2, env); err == nil {
		t.Fatal("dense pattern should be rejected")
	}
	// Shape mismatch rejected.
	e3, _ := ParseExpr("mask(V, H' * W')")
	if _, err := InferShape(e3, env); err == nil {
		t.Fatal("mismatched mask shapes should be rejected")
	}
}

func TestInterpretMask(t *testing.T) {
	src := `
input V 6 5 sparse
input W 6 2
input H 2 5
R = mask(V, W * H)
output R
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	v := linalg.RandomSparseDense(6, 5, 0.4, 1)
	w := linalg.RandomDense(6, 2, 2)
	h := linalg.RandomDense(2, 5, 3)
	out, err := Interpret(p, map[string]*linalg.Dense{"V": v, "W": w, "H": h})
	if err != nil {
		t.Fatal(err)
	}
	full := w.Mul(h)
	r := out["R"]
	for i := 0; i < 6; i++ {
		for j := 0; j < 5; j++ {
			if v.At(i, j) != 0 {
				if !linalg.Close(r.At(i, j), full.At(i, j), 1e-12) {
					t.Fatalf("masked value wrong at (%d,%d)", i, j)
				}
			} else if r.At(i, j) != 0 {
				t.Fatalf("unmasked position (%d,%d) nonzero", i, j)
			}
		}
	}
}

func TestParseForLoop(t *testing.T) {
	src := `
input V 40 30 sparse
input W 40 5
input H 5 30
for i in 1:3 {
  H = H .* (W' * V) ./ ((W' * W) * H)
  W = W .* (V * H') ./ (W * (H * H'))
}
output W
output H
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Stmts) != 6 {
		t.Fatalf("3 iterations x 2 statements should unroll to 6, got %d", len(p.Stmts))
	}
	if _, err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseNestedForLoops(t *testing.T) {
	src := `
input A 4 4
for i in 1:2 {
  A = 0.5 * A
  for j in 0:2 {
    A = A .* A
  }
}
output A
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// Each outer iteration: 1 + 3 = 4 statements; two iterations = 8.
	if len(p.Stmts) != 8 {
		t.Fatalf("nested unroll: got %d statements", len(p.Stmts))
	}
}

func TestParseForLoopSemantics(t *testing.T) {
	looped, err := Parse(`
input A 3 3
for i in 1:4 {
  A = 0.5 * A
}
output A
`)
	if err != nil {
		t.Fatal(err)
	}
	a := linalg.RandomDense(3, 3, 2)
	out, err := Interpret(looped, map[string]*linalg.Dense{"A": a})
	if err != nil {
		t.Fatal(err)
	}
	if !out["A"].AlmostEqual(a.Scale(1.0/16), 1e-12) {
		t.Fatal("loop unrolling changed semantics")
	}
}

func TestParseForLoopErrors(t *testing.T) {
	bad := []string{
		"input A 2 2\nfor i in 1:3 {\nA = A\noutput A", // unclosed
		"input A 2 2\n}\noutput A",                     // unmatched close
		"input A 2 2\nfor i in 3:1 {\nA = A\n}\noutput A",
		"input A 2 2\nfor i in x:3 {\nA = A\n}\noutput A",
		"input A 2 2\nfor i 1:3 {\nA = A\n}\noutput A",
		"input A 2 2\nfor i in 1:2\nA = A\n}\noutput A", // missing brace
		"for i in 1:2 {\ninput A 2 2\n}\noutput A",      // input in loop
		"input A 2 2\nfor i in 1:2 {\noutput A\n}",      // output in loop
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

// TestParseUnrollLimit: loops that would unroll past maxStatements are
// refused before they expand, in bounded time and allocation, with an error
// that states the numbers; a loop exactly at the limit parses.
func TestParseUnrollLimit(t *testing.T) {
	loop := func(prefix string, n int) string {
		return fmt.Sprintf("input A 2 2\n%sfor i in 1:%d {\nA = A\n}\noutput A", prefix, n)
	}
	hostile := []struct{ name, src, want string }{
		{"flat", loop("", 2000000000), "2000000000 x 1 statements on top of 0, over the limit of 65536"},
		{"one over", loop("", maxStatements+1), "65537 x 1 statements"},
		{"full after a statement", loop("A = A\n", maxStatements), "on top of 1,"},
		{"nested", "input A 2 2\nfor i in 1:65536 {\nfor j in 1:65536 {\nA = A\n}\n}\noutput A",
			"65536 x 65536 statements"},
		{"count overflows", "input A 2 2\nfor i in -9223372036854775808:9223372036854775807 {\nA = A\n}\noutput A",
			"overflows"},
		{"product overflows", "input A 2 2\nfor i in 1:9223372036854775807 {\nA = A\nA = A\n}\noutput A",
			"9223372036854775807 x 2 statements"},
	}
	for _, tc := range hostile {
		var err error
		allocs := testing.AllocsPerRun(1, func() { _, err = Parse(tc.src) })
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
		// The nested case legitimately builds the inner 65536-item body
		// (a few dozen slice growths); nothing grows with the loop counts.
		if allocs > 200 {
			t.Errorf("%s: %v allocations before the refusal", tc.name, allocs)
		}
	}
	// An empty body has nothing to unroll, whatever the count.
	if p, err := Parse("input A 2 2\nfor i in 1:2000000000 {\n}\noutput A"); err != nil || len(p.Stmts) != 0 {
		t.Fatalf("empty loop body: %v", err)
	}
	p, err := Parse(loop("", maxStatements))
	if err != nil || len(p.Stmts) != maxStatements {
		t.Fatalf("a loop exactly at the limit must parse: %v", err)
	}
}

// Property: rendering a program and reparsing it is a fixpoint.
func TestProgramStringParseFixpoint(t *testing.T) {
	srcs := []string{
		gnmfSrc,
		"input A 4 4\nB = mask(A, A * A)\noutput B",
		"input A 4 4\nfor i in 1:3 {\nA = 0.5 * A\n}\noutput A",
	}
	// The first parse may unroll loops; after that, String->Parse->String
	// must be stable.
	for i, src := range srcs {
		if i == 1 {
			// mask needs a sparse input to validate; skip validation here,
			// this test is purely syntactic.
			_ = i
		}
		p1, err := Parse(src)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		s1 := p1.String()
		p2, err := Parse(s1)
		if err != nil {
			t.Fatalf("case %d reparse: %v", i, err)
		}
		if s2 := p2.String(); s2 != s1 {
			t.Fatalf("case %d not a fixpoint:\n%s\nvs\n%s", i, s1, s2)
		}
	}
}
