package plan

import (
	"fmt"
	"math"

	"cumulon/internal/lang"
)

// Rewrite applies Cumulon's logical rewrites to an expression:
//
//  1. transpose pushdown — transposes are pushed to the variables, using
//     (AB)ᵀ = BᵀAᵀ and the fact that transpose commutes with element-wise
//     operators, so that no transpose ever has to be materialized (the
//     engine reads transposed tiles directly);
//  2. scalar folding — nested scalings collapse into one;
//  3. matrix-chain reordering — maximal products A·B·C·… are re-parenthesized
//     by the classic dynamic program to minimize total flops.
//
// env supplies the shapes of all referenced variables (from
// Program.Validate). Rewrite never changes the value of the expression.
func Rewrite(e lang.Expr, env map[string]lang.Shape) (lang.Expr, error) {
	e = pushTranspose(e, false)
	e = foldScale(e)
	return reorderChains(e, env)
}

// pushTranspose returns an expression equal to e (or eᵀ when t is true)
// in which every Transpose node wraps a Var. Every other operator is
// element-wise or, like mask(P, X)ᵀ = mask(Pᵀ, Xᵀ), transposes with its
// operands.
func pushTranspose(e lang.Expr, t bool) lang.Expr {
	switch x := e.(type) {
	case lang.Var:
		if t {
			return lang.Transpose{X: x}
		}
		return x
	case lang.Transpose:
		return pushTranspose(x.X, !t)
	case lang.MatMul:
		if t {
			return lang.MatMul{L: pushTranspose(x.R, true), R: pushTranspose(x.L, true)}
		}
	}
	return lang.Rebuild(e, func(c lang.Expr) lang.Expr { return pushTranspose(c, t) })
}

// foldScale collapses Scale(a, Scale(b, X)) into Scale(a*b, X) and removes
// Scale(1, X).
func foldScale(e lang.Expr) lang.Expr {
	x, ok := e.(lang.Scale)
	if !ok {
		return lang.Rebuild(e, foldScale)
	}
	inner := foldScale(x.X)
	s := x.S
	for {
		if si, ok := inner.(lang.Scale); ok {
			s *= si.S
			inner = si.X
			continue
		}
		break
	}
	if s == 1 {
		return inner
	}
	return lang.Scale{S: s, X: inner}
}

// reorderChains rewrites every maximal multiplication chain using the
// optimal matrix-chain-order dynamic program over the operand shapes.
func reorderChains(e lang.Expr, env map[string]lang.Shape) (lang.Expr, error) {
	if _, ok := e.(lang.MatMul); !ok {
		return rebuildErr(e, func(c lang.Expr) (lang.Expr, error) { return reorderChains(c, env) })
	}
	factors := collectFactors(e)
	reordered := make([]lang.Expr, len(factors))
	dims := make([]int, 0, len(factors)+1)
	for i, f := range factors {
		rf, err := reorderChains(f, env)
		if err != nil {
			return nil, err
		}
		reordered[i] = rf
		sh, err := lang.InferShape(rf, env)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			dims = append(dims, sh.Rows)
		}
		dims = append(dims, sh.Cols)
	}
	return chainOrder(reordered, dims), nil
}

// rebuildErr is lang.Rebuild for a child mapping that can fail: it maps no
// child after the first error, and returns that error.
func rebuildErr(e lang.Expr, f func(lang.Expr) (lang.Expr, error)) (lang.Expr, error) {
	var err error
	out := lang.Rebuild(e, func(c lang.Expr) lang.Expr {
		if err != nil {
			return c
		}
		var r lang.Expr
		r, err = f(c)
		return r
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// collectFactors flattens the multiplication spine of e into its ordered
// factor list: MatMul(MatMul(A,B),C) and MatMul(A,MatMul(B,C)) both yield
// [A B C]. Non-MatMul nodes stop the descent.
func collectFactors(e lang.Expr) []lang.Expr {
	if mm, ok := e.(lang.MatMul); ok {
		return append(collectFactors(mm.L), collectFactors(mm.R)...)
	}
	return []lang.Expr{e}
}

// chainOrder builds the optimal product tree over factors with boundary
// dimensions dims (len(factors)+1 entries, factor i is dims[i] x dims[i+1])
// using the O(n^3) matrix-chain dynamic program on 2·m·k·n flop costs.
func chainOrder(factors []lang.Expr, dims []int) lang.Expr {
	n := len(factors)
	if n == 1 {
		return factors[0]
	}
	cost := make([][]float64, n)
	split := make([][]int, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		split[i] = make([]int, n)
	}
	for length := 2; length <= n; length++ {
		for i := 0; i+length-1 < n; i++ {
			j := i + length - 1
			cost[i][j] = math.Inf(1)
			for k := i; k < j; k++ {
				c := cost[i][k] + cost[k+1][j] +
					2*float64(dims[i])*float64(dims[k+1])*float64(dims[j+1])
				if c < cost[i][j] {
					cost[i][j] = c
					split[i][j] = k
				}
			}
		}
	}
	var build func(i, j int) lang.Expr
	build = func(i, j int) lang.Expr {
		if i == j {
			return factors[i]
		}
		k := split[i][j]
		return lang.MatMul{L: build(i, k), R: build(k+1, j)}
	}
	return build(0, n-1)
}

// Cross-statement rewrite pass: common-subexpression elimination and
// loop-invariant hoisting over the unrolled program.
//
// Cumulon programs arrive with iterations unrolled, so a subexpression
// recomputed every iteration (the classic Aᵀ·A of normal-equation
// iterations) appears as many syntactically identical chains whose
// operands carry the same assignment versions. CSE finds maximal
// matrix-product chains whose *version-keyed* canonical form occurs more
// than once across the program, materializes each into a fresh temp
// assigned just before its first use, and rewrites every occurrence to
// read the temp. Keying occurrences by (variable, assignment version at
// the point of use) makes the value equality exact — a chain over
// operands that are never reassigned between two uses has one key, so
// cross-iteration CSE of invariant chains *is* loop-invariant hoisting —
// while any intervening reassignment splits the keys and blocks the
// rewrite. Only matrix-product chains are extracted: products dominate
// cost, and element-wise trees are fused into their consumers anyway, so
// deduplicating them would trade free fused flops for a materialized
// temp's I/O.

// CSEEntry describes one eliminated chain: all occurrences of the chain
// now read the hoisted temp instead of recomputing the product.
type CSEEntry struct {
	// Expr is the canonical text of the eliminated product chain.
	Expr string
	// Temp is the variable the chain was hoisted into.
	Temp string
	// Occurrences is how many uses now share the single evaluation.
	Occurrences int
	// FlopsSaved is (Occurrences-1) × the optimally-ordered chain cost.
	FlopsSaved int64
}

// RewriteReport summarizes what the cross-statement CSE/hoisting pass
// eliminated from a program.
type RewriteReport struct {
	Entries []CSEEntry
}

// Chains returns the number of distinct chains eliminated.
func (r *RewriteReport) Chains() int {
	if r == nil {
		return 0
	}
	return len(r.Entries)
}

// FlopsSaved returns the total flops the pass eliminated.
func (r *RewriteReport) FlopsSaved() int64 {
	if r == nil {
		return 0
	}
	var n int64
	for _, e := range r.Entries {
		n += e.FlopsSaved
	}
	return n
}

func (r *RewriteReport) String() string {
	if r.Chains() == 0 {
		return "rewrites: none"
	}
	s := fmt.Sprintf("rewrites: %d chain(s) eliminated, %d flops saved\n", r.Chains(), r.FlopsSaved())
	for _, e := range r.Entries {
		s += fmt.Sprintf("  %s = %s  (%d occurrences, %d flops saved)\n",
			e.Temp, e.Expr, e.Occurrences, e.FlopsSaved)
	}
	return s
}

// CSE applies the cross-statement rewrite pass to a validated program,
// returning the rewritten program (a fresh value; the input is never
// mutated) and a report of what was eliminated. When nothing is
// eliminated the input program is returned unchanged with a nil report.
func CSE(p *lang.Program) (*lang.Program, *RewriteReport, error) {
	env, err := p.Validate()
	if err != nil {
		return nil, nil, err
	}

	// Normalize every right-hand side so chain keys are insensitive to
	// transpose placement and scale nesting (lowering re-normalizes, so
	// substituting the normalized forms back is value-preserving).
	norm := make([]lang.Expr, len(p.Stmts))
	for i, st := range p.Stmts {
		norm[i] = foldScale(pushTranspose(st.Expr, false))
	}

	// Pass 1: count version-keyed chain occurrences in program order.
	type chainInfo struct {
		key       string
		expr      lang.Expr // first occurrence, normalized
		count     int
		firstStmt int
	}
	versions := map[string]int{}
	for _, in := range p.Inputs {
		versions[in.Name] = 1
	}
	counts := map[string]*chainInfo{}
	var order []*chainInfo
	for i, st := range p.Stmts {
		if _, masked := norm[i].(lang.Mask); !masked {
			forEachChain(norm[i], func(chain lang.Expr) {
				k := chainKey(chain, versions)
				ci := counts[k]
				if ci == nil {
					ci = &chainInfo{key: k, expr: chain, firstStmt: i}
					counts[k] = ci
					order = append(order, ci)
				}
				ci.count++
			})
		}
		versions[st.Name]++
	}

	var winners []*chainInfo
	for _, ci := range order {
		if ci.count >= 2 {
			winners = append(winners, ci)
		}
	}
	if len(winners) == 0 {
		return p, nil, nil
	}

	// Pass 2: rebuild the statement list, materializing each winning chain
	// into a temp just before its first use and rewriting occurrences.
	temp := map[string]string{} // chain key -> temp variable
	report := &RewriteReport{}
	out := &lang.Program{
		Name:    p.Name,
		Inputs:  append([]lang.Input(nil), p.Inputs...),
		Outputs: append([]string(nil), p.Outputs...),
	}
	versions = map[string]int{}
	for _, in := range p.Inputs {
		versions[in.Name] = 1
	}
	for i, st := range p.Stmts {
		// Checkpoint boundaries keep their position relative to original
		// statements: a boundary after the first i statements lands before
		// any temp hoisted into statement i (the temp is part of that
		// statement's work).
		if p.BoundaryAt(i) {
			out.Boundaries = append(out.Boundaries, len(out.Stmts))
		}
		for _, ci := range winners {
			if ci.firstStmt != i {
				continue
			}
			name := fmt.Sprintf("$cse%d", len(temp)+1)
			temp[ci.key] = name
			// The temp's own body may use earlier temps for chains nested
			// inside its factors, but never for its root (that would bind
			// the temp to itself).
			body := replaceChains(ci.expr, versions, temp, name)
			out.Stmts = append(out.Stmts, lang.Assign{Name: name, Expr: body})
			versions[name]++
			flops, ferr := hoistedChainFlops(ci.expr, env)
			if ferr != nil {
				return nil, nil, ferr
			}
			report.Entries = append(report.Entries, CSEEntry{
				Expr:        ci.expr.String(),
				Temp:        name,
				Occurrences: ci.count,
				FlopsSaved:  int64(ci.count-1) * flops,
			})
		}
		e := norm[i]
		if _, masked := e.(lang.Mask); !masked {
			e = replaceChains(e, versions, temp, "")
		}
		out.Stmts = append(out.Stmts, lang.Assign{Name: st.Name, Expr: e})
		versions[st.Name]++
	}
	if p.BoundaryAt(len(p.Stmts)) {
		out.Boundaries = append(out.Boundaries, len(out.Stmts))
	}
	if _, err := out.Validate(); err != nil {
		return nil, nil, fmt.Errorf("plan: CSE produced an invalid program: %w", err)
	}
	return out, report, nil
}

// forEachChain visits every maximal matrix-product chain of e in prefix
// order: each MatMul node whose parent is not a MatMul roots one chain,
// and the visit then recurses into the chain's factors (so chains nested
// inside factors are visited too).
func forEachChain(e lang.Expr, f func(chain lang.Expr)) {
	if _, ok := e.(lang.MatMul); !ok {
		lang.Rebuild(e, func(c lang.Expr) lang.Expr {
			forEachChain(c, f)
			return c
		})
		return
	}
	f(e)
	for _, fac := range collectFactors(e) {
		forEachChain(fac, f)
	}
}

// chainKey renders the version-keyed canonical form of e. Product chains
// render as their flattened factor sequence, so the key is insensitive to
// parenthesization (the chain-order DP re-parenthesizes freely).
func chainKey(e lang.Expr, versions map[string]int) string {
	switch x := e.(type) {
	case lang.Var:
		return fmt.Sprintf("%s@%d", x.Name, versions[x.Name])
	case lang.Transpose:
		return chainKey(x.X, versions) + "'"
	case lang.MatMul:
		factors := collectFactors(x)
		parts := make([]string, len(factors))
		for i, f := range factors {
			parts[i] = chainKey(f, versions)
		}
		return "mm(" + joinKeys(parts) + ")"
	case lang.Elem:
		return x.Op.String() + "(" + chainKey(x.L, versions) + "," + chainKey(x.R, versions) + ")"
	case lang.Scale:
		return fmt.Sprintf("scale(%g,%s)", x.S, chainKey(x.X, versions))
	case lang.Apply:
		return x.Fn + "(" + chainKey(x.X, versions) + ")"
	case lang.Mask:
		return "mask(" + chainKey(x.P, versions) + "," + chainKey(x.X, versions) + ")"
	default:
		return fmt.Sprintf("?%T", e)
	}
}

func joinKeys(parts []string) string {
	s := ""
	for i, p := range parts {
		if i > 0 {
			s += ","
		}
		s += p
	}
	return s
}

// replaceChains rewrites every maximal chain of e whose key has a temp
// binding into a reference to that temp, leaving everything else intact.
// skipTemp names a temp whose own defining body is being rewritten: its
// root chain must not be replaced by itself.
func replaceChains(e lang.Expr, versions map[string]int, temp map[string]string, skipTemp string) lang.Expr {
	x, ok := e.(lang.MatMul)
	if !ok {
		return lang.Rebuild(e, func(c lang.Expr) lang.Expr { return replaceChains(c, versions, temp, skipTemp) })
	}
	if name, ok := temp[chainKey(x, versions)]; ok && name != skipTemp {
		return lang.Var{Name: name}
	}
	// Not replaced at this root: rebuild the spine without key-testing
	// its sub-products (fragments of one chain must not bind to temps
	// of shorter chains — that would fence the chain-order DP), and
	// recurse into the factors, whose own nested chains are distinct.
	return rebuildSpine(x, versions, temp)
}

// rebuildSpine walks a product spine preserving its parenthesization,
// replacing chains only inside the spine's factors.
func rebuildSpine(x lang.MatMul, versions map[string]int, temp map[string]string) lang.Expr {
	side := func(e lang.Expr) lang.Expr {
		if m, ok := e.(lang.MatMul); ok {
			return rebuildSpine(m, versions, temp)
		}
		return replaceChains(e, versions, temp, "")
	}
	return lang.MatMul{L: side(x.L), R: side(x.R)}
}

// hoistedChainFlops estimates the optimally-ordered evaluation cost of a
// product chain (what one occurrence costs, and so what each eliminated
// occurrence saves).
func hoistedChainFlops(chain lang.Expr, env map[string]lang.Shape) (int64, error) {
	re, err := reorderChains(chain, env)
	if err != nil {
		return 0, err
	}
	return ChainFlops(re, env)
}

// ChainFlops returns the flop cost of evaluating all matrix products in e
// as parenthesized, given variable shapes. It is used by tests to verify
// that reordering never increases cost, and by the experiment harness to
// report logical work.
func ChainFlops(e lang.Expr, env map[string]lang.Shape) (int64, error) {
	var total int64
	var walk func(x lang.Expr) (lang.Shape, error)
	walk = func(x lang.Expr) (lang.Shape, error) {
		switch n := x.(type) {
		case lang.MatMul:
			l, err := walk(n.L)
			if err != nil {
				return lang.Shape{}, err
			}
			r, err := walk(n.R)
			if err != nil {
				return lang.Shape{}, err
			}
			total += 2 * int64(l.Rows) * int64(l.Cols) * int64(r.Cols)
			return lang.Shape{Rows: l.Rows, Cols: r.Cols}, nil
		case lang.Transpose:
			s, err := walk(n.X)
			if err != nil {
				return lang.Shape{}, err
			}
			return lang.Shape{Rows: s.Cols, Cols: s.Rows}, nil
		case lang.Var:
			sh, ok := env[n.Name]
			if !ok {
				return lang.Shape{}, fmt.Errorf("plan: unknown variable %s", n.Name)
			}
			return sh, nil
		}
		// Every other node has its last child's shape.
		var sh lang.Shape
		var err error
		lang.Rebuild(x, func(c lang.Expr) lang.Expr {
			if err == nil {
				sh, err = walk(c)
			}
			return c
		})
		return sh, err
	}
	if _, err := walk(e); err != nil {
		return 0, err
	}
	return total, nil
}
