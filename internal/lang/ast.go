// Package lang defines Cumulon's input language: linear-algebra programs
// over matrices. A program is a list of input declarations followed by
// assignments whose right-hand sides are matrix expressions; selected
// variables are marked as outputs. Programs are what users hand to the
// system (either via the Go API or the small textual front end in this
// package); the planner lowers them to DAGs of physical jobs.
package lang

import (
	"fmt"
	"math"
	"strings"

	"cumulon/internal/linalg"
)

// Expr is a matrix-valued expression node.
type Expr interface {
	// String renders the expression in the textual front-end syntax.
	String() string
	exprNode()
}

// Var references a previously defined matrix (input or assigned).
type Var struct{ Name string }

// MatMul is the matrix product L × R.
type MatMul struct{ L, R Expr }

// Elem is the binary element-wise operator Op applied to L and R, which
// have one shape.
type Elem struct {
	Op   ElemOp
	L, R Expr
}

// ElemOp names a binary element-wise operator. elemOps holds everything
// that differs between them.
type ElemOp uint8

const (
	OpAdd ElemOp = iota // +
	OpSub               // -
	OpMul               // .*, the Hadamard product
	OpDiv               // ./
	NumElemOps
)

var elemOps = [NumElemOps]struct {
	sym string
	// term: the operator binds like '*' in the grammar, not like '+'.
	term  bool
	dense func(a, b *linalg.Dense) *linalg.Dense
}{
	OpAdd: {"+", false, (*linalg.Dense).Add},
	OpSub: {"-", false, (*linalg.Dense).Sub},
	OpMul: {".*", true, (*linalg.Dense).ElemMul},
	OpDiv: {"./", true, (*linalg.Dense).ElemDiv},
}

// String is the operator's symbol in the textual syntax.
func (op ElemOp) String() string { return elemOps[op].sym }

// Dense computes a op b on dense matrices, the interpreter's reference.
func (op ElemOp) Dense(a, b *linalg.Dense) *linalg.Dense { return elemOps[op].dense(a, b) }

// Scale multiplies every element by the constant S.
type Scale struct {
	S float64
	X Expr
}

// Transpose is Xᵀ, written "X'".
type Transpose struct{ X Expr }

// Apply applies a named scalar function element-wise. The function set is
// closed (see Funcs) so plans remain serializable and cost-predictable.
type Apply struct {
	Fn string
	X  Expr
}

// Mask restricts X to the sparsity pattern of P, written "mask(P, X)":
// the result has P's (sparse) pattern, with the value of X at each stored
// position and structural zero elsewhere. Its purpose is the masked
// matrix multiply mask(V, W*H) — computing a product only at observed
// entries (the residual primitive of sparse matrix factorization) at cost
// proportional to nnz(V) rather than to the full dense product.
type Mask struct {
	P Expr // the pattern: a (possibly transposed) sparse matrix reference
	X Expr
}

func (Var) exprNode()       {}
func (MatMul) exprNode()    {}
func (Elem) exprNode()      {}
func (Scale) exprNode()     {}
func (Transpose) exprNode() {}
func (Apply) exprNode()     {}
func (Mask) exprNode()      {}

func (e Var) String() string       { return e.Name }
func (e MatMul) String() string    { return fmt.Sprintf("(%s * %s)", e.L, e.R) }
func (e Elem) String() string      { return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R) }
func (e Scale) String() string     { return fmt.Sprintf("(%g * %s)", e.S, e.X) }
func (e Transpose) String() string { return fmt.Sprintf("%s'", e.X) }
func (e Apply) String() string     { return fmt.Sprintf("%s(%s)", e.Fn, e.X) }
func (e Mask) String() string      { return fmt.Sprintf("mask(%s, %s)", e.P, e.X) }

// Funcs is the closed set of element-wise scalar functions.
var Funcs = map[string]func(float64) float64{
	"exp":   math.Exp,
	"log":   math.Log,
	"sqrt":  math.Sqrt,
	"abs":   math.Abs,
	"recip": func(x float64) float64 { return 1 / x },
	"sq":    func(x float64) float64 { return x * x },
}

// FuncNames lists the closed function set in a fixed order, so compiled
// tile programs can reference a function by a stable small integer
// instead of a map lookup per element.
var FuncNames = []string{"abs", "exp", "log", "recip", "sq", "sqrt"}

// FuncTable holds the functions in FuncNames order.
var FuncTable = func() []func(float64) float64 {
	t := make([]func(float64) float64, len(FuncNames))
	for i, n := range FuncNames {
		t[i] = Funcs[n]
	}
	return t
}()

// FuncIndex returns the FuncNames index of fn, or -1 when fn is not in
// the closed function set.
func FuncIndex(fn string) int {
	for i, n := range FuncNames {
		if n == fn {
			return i
		}
	}
	return -1
}

// Shape is the inferred type of an expression: dimensions plus whether the
// value is stored sparse.
type Shape struct {
	Rows, Cols int
	Sparse     bool
}

func (s Shape) String() string {
	k := "dense"
	if s.Sparse {
		k = "sparse"
	}
	return fmt.Sprintf("%dx%d %s", s.Rows, s.Cols, k)
}

// Input declares a program input matrix.
type Input struct {
	Name   string
	Rows   int
	Cols   int
	Sparse bool
}

// Assign binds the value of Expr to Name. Reassigning an existing name is
// allowed and creates a new version (needed for iterative programs).
type Assign struct {
	Name string
	Expr Expr
}

// Program is a complete Cumulon program.
type Program struct {
	Name    string
	Inputs  []Input
	Stmts   []Assign
	Outputs []string
	// Boundaries marks iteration boundaries for program-level
	// checkpointing: each entry b means "a checkpoint may be taken after
	// the first b statements" (0 <= b <= len(Stmts), strictly
	// increasing). The textual syntax writes a boundary as a bare
	// `checkpoint` line; workload builders append one per outer-loop
	// iteration. Boundaries are advisory — execution ignores them unless
	// checkpointing is enabled — so programs with and without markers
	// compute identical results.
	Boundaries []int
}

// BoundaryAt reports whether a checkpoint boundary sits after the first
// n statements.
func (p *Program) BoundaryAt(n int) bool {
	for _, b := range p.Boundaries {
		if b == n {
			return true
		}
	}
	return false
}

// Validate type-checks the program: every referenced variable must be
// defined before use, shapes must be compatible, function names known,
// and outputs defined. On success it returns the shape of every variable
// (for reassigned variables, the final shape; reassignment must preserve
// shape so iterative programs are well-formed).
func (p *Program) Validate() (map[string]Shape, error) {
	env := map[string]Shape{}
	for _, in := range p.Inputs {
		if in.Rows <= 0 || in.Cols <= 0 {
			return nil, fmt.Errorf("lang: input %s has invalid shape %dx%d", in.Name, in.Rows, in.Cols)
		}
		if _, ok := env[in.Name]; ok {
			return nil, fmt.Errorf("lang: duplicate input %s", in.Name)
		}
		env[in.Name] = Shape{Rows: in.Rows, Cols: in.Cols, Sparse: in.Sparse}
	}
	for i, st := range p.Stmts {
		sh, err := InferShape(st.Expr, env)
		if err != nil {
			return nil, fmt.Errorf("lang: statement %d (%s = %s): %w", i, st.Name, st.Expr, err)
		}
		if old, ok := env[st.Name]; ok && (old.Rows != sh.Rows || old.Cols != sh.Cols) {
			return nil, fmt.Errorf("lang: statement %d reassigns %s with shape %dx%d (was %dx%d)",
				i, st.Name, sh.Rows, sh.Cols, old.Rows, old.Cols)
		}
		env[st.Name] = sh
	}
	if len(p.Outputs) == 0 {
		return nil, fmt.Errorf("lang: program %q has no outputs", p.Name)
	}
	prev := -1
	for _, b := range p.Boundaries {
		if b < 0 || b > len(p.Stmts) {
			return nil, fmt.Errorf("lang: checkpoint boundary %d out of range (program has %d statements)", b, len(p.Stmts))
		}
		if b <= prev {
			return nil, fmt.Errorf("lang: checkpoint boundaries must be strictly increasing (got %d after %d)", b, prev)
		}
		prev = b
	}
	for _, o := range p.Outputs {
		if _, ok := env[o]; !ok {
			return nil, fmt.Errorf("lang: output %s is never defined", o)
		}
	}
	return env, nil
}

// InferShape computes the shape of e in environment env, reporting the
// first incompatibility found.
func InferShape(e Expr, env map[string]Shape) (Shape, error) {
	switch x := e.(type) {
	case Var:
		sh, ok := env[x.Name]
		if !ok {
			return Shape{}, fmt.Errorf("undefined variable %s", x.Name)
		}
		return sh, nil
	case MatMul:
		l, err := InferShape(x.L, env)
		if err != nil {
			return Shape{}, err
		}
		r, err := InferShape(x.R, env)
		if err != nil {
			return Shape{}, err
		}
		if l.Cols != r.Rows {
			return Shape{}, fmt.Errorf("matmul inner dimensions %d vs %d", l.Cols, r.Rows)
		}
		return Shape{Rows: l.Rows, Cols: r.Cols}, nil
	case Elem:
		ls, err := InferShape(x.L, env)
		if err != nil {
			return Shape{}, err
		}
		rs, err := InferShape(x.R, env)
		if err != nil {
			return Shape{}, err
		}
		if ls.Rows != rs.Rows || ls.Cols != rs.Cols {
			return Shape{}, fmt.Errorf("element-wise operands %dx%d vs %dx%d", ls.Rows, ls.Cols, rs.Rows, rs.Cols)
		}
		return Shape{Rows: ls.Rows, Cols: ls.Cols}, nil
	case Scale:
		return InferShape(x.X, env)
	case Transpose:
		s, err := InferShape(x.X, env)
		if err != nil {
			return Shape{}, err
		}
		return Shape{Rows: s.Cols, Cols: s.Rows, Sparse: s.Sparse}, nil
	case Apply:
		if _, ok := Funcs[x.Fn]; !ok {
			return Shape{}, fmt.Errorf("unknown function %s", x.Fn)
		}
		return InferShape(x.X, env)
	case Mask:
		ps, err := InferShape(x.P, env)
		if err != nil {
			return Shape{}, err
		}
		if !ps.Sparse {
			return Shape{}, fmt.Errorf("mask pattern %s must be sparse", x.P)
		}
		xs, err := InferShape(x.X, env)
		if err != nil {
			return Shape{}, err
		}
		if ps.Rows != xs.Rows || ps.Cols != xs.Cols {
			return Shape{}, fmt.Errorf("mask pattern %dx%d vs value %dx%d", ps.Rows, ps.Cols, xs.Rows, xs.Cols)
		}
		return Shape{Rows: xs.Rows, Cols: xs.Cols, Sparse: true}, nil
	default:
		return Shape{}, fmt.Errorf("unknown expression node %T", e)
	}
}

// Rebuild returns e with each direct child c replaced by f(c), calling f
// on the children left to right, in the order String renders them. A Var
// has no children and comes back as is. A traversal that rebuilds or
// visits a tree hands every node it has no special case for to Rebuild,
// so that only Rebuild lists which children each node has.
func Rebuild(e Expr, f func(Expr) Expr) Expr {
	switch x := e.(type) {
	case Var:
		return x
	case MatMul:
		return MatMul{L: f(x.L), R: f(x.R)}
	case Elem:
		return Elem{Op: x.Op, L: f(x.L), R: f(x.R)}
	case Scale:
		return Scale{S: x.S, X: f(x.X)}
	case Transpose:
		return Transpose{X: f(x.X)}
	case Apply:
		return Apply{Fn: x.Fn, X: f(x.X)}
	case Mask:
		return Mask{P: f(x.P), X: f(x.X)}
	}
	panic(fmt.Sprintf("lang: Rebuild: unknown node %T", e))
}

// Walk visits e and all descendants in prefix order.
func Walk(e Expr, f func(Expr)) {
	f(e)
	Rebuild(e, func(c Expr) Expr {
		Walk(c, f)
		return c
	})
}

// String renders the whole program in the textual syntax accepted by Parse.
func (p *Program) String() string {
	var b strings.Builder
	for _, in := range p.Inputs {
		kind := ""
		if in.Sparse {
			kind = " sparse"
		}
		fmt.Fprintf(&b, "input %s %d %d%s\n", in.Name, in.Rows, in.Cols, kind)
	}
	for i, st := range p.Stmts {
		if p.BoundaryAt(i) {
			b.WriteString("checkpoint\n")
		}
		fmt.Fprintf(&b, "%s = %s\n", st.Name, st.Expr)
	}
	if p.BoundaryAt(len(p.Stmts)) {
		b.WriteString("checkpoint\n")
	}
	for _, o := range p.Outputs {
		fmt.Fprintf(&b, "output %s\n", o)
	}
	return b.String()
}
