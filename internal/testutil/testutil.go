// Package testutil generates random, shape-valid matrix programs and
// matching input data. The planner and both execution engines are tested
// against the reference interpreter on these programs, which exercises
// operator fusion, transposed access paths, chain reordering, fringe
// tiles, and sparse inputs far beyond what hand-written cases cover.
package testutil

import (
	"fmt"
	"math/rand"

	"cumulon/internal/lang"
	"cumulon/internal/linalg"
)

// Dims is the dimension family random matrices draw from. Deliberately
// non-multiples of typical tile sizes so fringe tiles are always present.
var Dims = []int{5, 8, 13}

// Gen generates random programs over a fixed input family: one input
// matrix for every (rows, cols) pair in Dims x Dims.
type Gen struct {
	rng *rand.Rand
	env map[string]lang.Shape
}

// NewGen returns a generator with the given seed.
func NewGen(seed int64) *Gen {
	g := &Gen{rng: rand.New(rand.NewSource(seed)), env: map[string]lang.Shape{}}
	for _, r := range Dims {
		for _, c := range Dims {
			g.env[inputName(r, c)] = lang.Shape{Rows: r, Cols: c}
		}
	}
	return g
}

func inputName(r, c int) string { return fmt.Sprintf("M%dx%d", r, c) }

// Inputs returns the input declarations of the generator's environment.
func (g *Gen) Inputs() []lang.Input {
	var ins []lang.Input
	for _, r := range Dims {
		for _, c := range Dims {
			ins = append(ins, lang.Input{Name: inputName(r, c), Rows: r, Cols: c})
		}
	}
	return ins
}

// InputData returns deterministic random matrices for every input.
func (g *Gen) InputData(seed int64) map[string]*linalg.Dense {
	data := map[string]*linalg.Dense{}
	i := int64(0)
	for _, r := range Dims {
		for _, c := range Dims {
			i++
			// Positive entries keep ElemDiv well-conditioned.
			d := linalg.RandomDense(r, c, seed+i)
			data[inputName(r, c)] = d.Map(func(x float64) float64 { return x + 0.5 })
		}
	}
	return data
}

// Expr generates a random expression of the given shape with the given
// remaining recursion depth.
func (g *Gen) Expr(rows, cols, depth int) lang.Expr {
	if depth <= 0 {
		return g.leaf(rows, cols)
	}
	switch k := g.rng.Intn(8); k {
	case 0:
		return g.leaf(rows, cols)
	case 1, 2, 3:
		op := [...]lang.ElemOp{lang.OpAdd, lang.OpSub, lang.OpMul}[k-1]
		return lang.Elem{Op: op, L: g.Expr(rows, cols, depth-1), R: g.Expr(rows, cols, depth-1)}
	case 4:
		return lang.Scale{S: 0.25 + g.rng.Float64(), X: g.Expr(rows, cols, depth-1)}
	case 5:
		// abs keeps values bounded away from overflow under products and
		// is defined everywhere.
		return lang.Apply{Fn: "abs", X: g.Expr(rows, cols, depth-1)}
	case 6:
		return lang.Transpose{X: g.Expr(cols, rows, depth-1)}
	default:
		k := Dims[g.rng.Intn(len(Dims))]
		return lang.MatMul{L: g.Expr(rows, k, depth-1), R: g.Expr(k, cols, depth-1)}
	}
}

func (g *Gen) leaf(rows, cols int) lang.Expr {
	if g.rng.Intn(2) == 0 {
		if _, ok := g.env[inputName(cols, rows)]; ok {
			return lang.Transpose{X: lang.Var{Name: inputName(cols, rows)}}
		}
	}
	return lang.Var{Name: inputName(rows, cols)}
}

// Program generates a random program with nStmts statements; each
// statement may reference inputs and all previously assigned variables
// via direct use in later expressions is approximated by using inputs only
// (statements remain independent, which is sufficient to exercise the
// planner per-statement and keeps shapes simple). The last statement's
// variable is the single output.
func (g *Gen) Program(name string, nStmts, depth int) *lang.Program {
	p := &lang.Program{Name: name, Inputs: g.Inputs()}
	for i := 0; i < nStmts; i++ {
		r := Dims[g.rng.Intn(len(Dims))]
		c := Dims[g.rng.Intn(len(Dims))]
		p.Stmts = append(p.Stmts, lang.Assign{
			Name: fmt.Sprintf("X%d", i),
			Expr: g.Expr(r, c, depth),
		})
		p.Outputs = append(p.Outputs, fmt.Sprintf("X%d", i))
	}
	return p
}

// Env returns a copy of the generator's input shape environment.
func (g *Gen) Env() map[string]lang.Shape {
	out := make(map[string]lang.Shape, len(g.env))
	for k, v := range g.env {
		out[k] = v
	}
	return out
}
