package lang

import (
	"fmt"

	"cumulon/internal/linalg"
)

// Interpret evaluates a program directly on in-memory dense matrices. It
// is the semantic reference for the distributed engines: every engine must
// produce, for each output, a matrix equal to what Interpret returns (up
// to floating-point reassociation tolerance).
//
// inputs must provide a matrix for every declared input, with matching
// shape. The returned map contains the final value of every output.
func Interpret(p *Program, inputs map[string]*linalg.Dense) (map[string]*linalg.Dense, error) {
	if _, err := p.Validate(); err != nil {
		return nil, err
	}
	env := map[string]*linalg.Dense{}
	for _, in := range p.Inputs {
		d, ok := inputs[in.Name]
		if !ok {
			return nil, fmt.Errorf("lang: missing input matrix %s", in.Name)
		}
		if d.Rows != in.Rows || d.Cols != in.Cols {
			return nil, fmt.Errorf("lang: input %s is %dx%d, declared %dx%d",
				in.Name, d.Rows, d.Cols, in.Rows, in.Cols)
		}
		env[in.Name] = d
	}
	for _, st := range p.Stmts {
		v, err := Eval(st.Expr, env)
		if err != nil {
			return nil, err
		}
		env[st.Name] = v
	}
	out := map[string]*linalg.Dense{}
	for _, o := range p.Outputs {
		out[o] = env[o]
	}
	return out, nil
}

// Eval evaluates a single expression in an environment of dense matrices.
func Eval(e Expr, env map[string]*linalg.Dense) (*linalg.Dense, error) {
	switch x := e.(type) {
	case Var:
		v, ok := env[x.Name]
		if !ok {
			return nil, fmt.Errorf("lang: undefined variable %s", x.Name)
		}
		return v, nil
	case MatMul:
		l, r, err := evalPair(x.L, x.R, env)
		if err != nil {
			return nil, err
		}
		return l.Mul(r), nil
	case Elem:
		l, r, err := evalPair(x.L, x.R, env)
		if err != nil {
			return nil, err
		}
		return x.Op.Dense(l, r), nil
	case Scale:
		v, err := Eval(x.X, env)
		if err != nil {
			return nil, err
		}
		return v.Scale(x.S), nil
	case Transpose:
		v, err := Eval(x.X, env)
		if err != nil {
			return nil, err
		}
		return v.T(), nil
	case Apply:
		fn, ok := Funcs[x.Fn]
		if !ok {
			return nil, fmt.Errorf("lang: unknown function %s", x.Fn)
		}
		v, err := Eval(x.X, env)
		if err != nil {
			return nil, err
		}
		return v.Map(fn), nil
	case Mask:
		p, v, err := evalPair(x.P, x.X, env)
		if err != nil {
			return nil, err
		}
		if p.Rows != v.Rows || p.Cols != v.Cols {
			return nil, fmt.Errorf("lang: mask shape mismatch %dx%d vs %dx%d", p.Rows, p.Cols, v.Rows, v.Cols)
		}
		out := linalg.NewDense(v.Rows, v.Cols)
		for i, pv := range p.Data {
			if pv != 0 {
				out.Data[i] = v.Data[i]
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("lang: unknown expression node %T", e)
	}
}

func evalPair(l, r Expr, env map[string]*linalg.Dense) (*linalg.Dense, *linalg.Dense, error) {
	lv, err := Eval(l, env)
	if err != nil {
		return nil, nil, err
	}
	rv, err := Eval(r, env)
	if err != nil {
		return nil, nil, err
	}
	return lv, rv, nil
}
