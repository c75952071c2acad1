package lang

import (
	"go/ast"
	"go/parser"
	gotoken "go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cumulon/internal/linalg"
)

// TestNodeTable holds every expression node kind to Rebuild, String and
// Parse, and every element-wise operator to its symbol and its Dense
// method. A node kind that is declared but missing from the table fails
// here by name; one that is in the table but missing from Rebuild panics.
func TestNodeTable(t *testing.T) {
	a, b, s := Var{"A"}, Var{"B"}, Var{"S"}
	// Children are subtrees, so an identity rebuild is held to whole trees.
	ta := Transpose{X: a}
	nodes := []struct {
		e        Expr
		children []Expr
	}{
		{a, nil},
		{MatMul{L: ta, R: b}, []Expr{ta, b}},
		{Scale{S: 2, X: ta}, []Expr{ta}},
		{Transpose{X: MatMul{L: a, R: b}}, []Expr{MatMul{L: a, R: b}}},
		{Apply{Fn: "exp", X: ta}, []Expr{ta}},
		{Mask{P: s, X: MatMul{L: a, R: b}}, []Expr{s, MatMul{L: a, R: b}}},
	}
	ops := [NumElemOps]struct {
		sym   string
		dense func(x, y *linalg.Dense) *linalg.Dense
	}{
		OpAdd: {"+", (*linalg.Dense).Add},
		OpSub: {"-", (*linalg.Dense).Sub},
		OpMul: {".*", (*linalg.Dense).ElemMul},
		OpDiv: {"./", (*linalg.Dense).ElemDiv},
	}
	for op := range NumElemOps {
		nodes = append(nodes, struct {
			e        Expr
			children []Expr
		}{Elem{Op: op, L: ta, R: Scale{S: 3, X: b}}, []Expr{ta, Scale{S: 3, X: b}}})
	}

	kinds := map[string]bool{}
	for _, n := range nodes {
		kinds[reflect.TypeOf(n.e).Name()] = true
		var seen []Expr
		got := Rebuild(n.e, func(c Expr) Expr {
			seen = append(seen, c)
			return c
		})
		if !reflect.DeepEqual(got, n.e) {
			t.Errorf("%T: identity Rebuild gave %s, want %s", n.e, got, n.e)
		}
		if !reflect.DeepEqual(seen, n.children) {
			t.Errorf("%T %s: Rebuild visited %v, want each of %v once", n.e, n.e, seen, n.children)
		}
		back, err := ParseExpr(n.e.String())
		if err != nil || !reflect.DeepEqual(back, n.e) {
			t.Errorf("%T: %q parses back to %v (%v)", n.e, n.e.String(), back, err)
		}
	}
	for _, kind := range exprKinds(t) {
		if !kinds[kind] {
			t.Errorf("node kind %s is not in this table", kind)
		}
	}

	env := map[string]*linalg.Dense{
		"A": linalg.RandomDense(3, 4, 1).Map(func(x float64) float64 { return x + 0.5 }),
		"B": linalg.RandomDense(4, 3, 2).Map(func(x float64) float64 { return x + 0.5 }),
	}
	at, b3 := env["A"].T(), env["B"].Scale(3)
	for op := range NumElemOps {
		if got := op.String(); got != ops[op].sym {
			t.Errorf("op %d renders %q, want %q", op, got, ops[op].sym)
		}
		got, err := Eval(Elem{Op: op, L: ta, R: Scale{S: 3, X: b}}, env)
		if err != nil {
			t.Fatal(err)
		}
		if want := ops[op].dense(at, b3); !reflect.DeepEqual(got, want) {
			t.Errorf("op %s: Eval differs from its Dense method", op)
		}
		if want := op.Dense(at, b3); !reflect.DeepEqual(got, want) {
			t.Errorf("op %s: Eval differs from op.Dense", op)
		}
	}
}

// exprKinds lists the package's types that implement Expr: the receivers
// of exprNode in its non-test files.
func exprKinds(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	fset := gotoken.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Name.Name != "exprNode" || fn.Recv == nil {
				continue
			}
			if id, ok := fn.Recv.List[0].Type.(*ast.Ident); ok {
				kinds = append(kinds, id.Name)
			}
		}
	}
	if len(kinds) == 0 {
		t.Fatal("no exprNode methods found")
	}
	return kinds
}

// TestRHSTokenLimit: a right-hand side of more than maxExprTokens tokens is
// refused with the line and the limit, fast, whatever its shape — a long
// product chain (cubic in the planner's chain-order search) or deep
// nesting (every pass recurses that deep) — and one at the limit parses.
func TestRHSTokenLimit(t *testing.T) {
	hostile := map[string]string{
		"2000-factor chain": "input A 10 10\nX = A" + strings.Repeat(" * A", 1999) + "\noutput X\n",
		"400000-deep parens": "input A 10 10\nX = " + strings.Repeat("(", 400000) + "A" +
			strings.Repeat(")", 400000) + "\noutput X\n",
	}
	for name, src := range hostile {
		start := time.Now()
		_, err := Parse(src)
		took := time.Since(start)
		if err == nil {
			t.Fatalf("%s: parsed", name)
		}
		if msg := err.Error(); !strings.Contains(msg, "line 2") || !strings.Contains(msg, "limit of 512 tokens") || strings.Contains(msg, "\n") {
			t.Errorf("%s: error %q does not name the line and the limit on one line", name, msg)
		}
		if took > 50*time.Millisecond {
			t.Errorf("%s: refused in %v, want under 50ms", name, took)
		}
	}
	// A' is two tokens and each " + A" two more: 2 + 2·255 = 512.
	at := "input A 10 10\nX = A'" + strings.Repeat(" + A", 255) + "\noutput X\n"
	if _, err := Parse(at); err != nil {
		t.Fatalf("a right-hand side of exactly %d tokens: %v", maxExprTokens, err)
	}
	over := strings.Replace(at, "A'", "A''", 1)
	if _, err := Parse(over); err == nil {
		t.Fatalf("a right-hand side of %d tokens parsed", maxExprTokens+1)
	}
}
