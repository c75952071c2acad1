package plan

import (
	"fmt"

	"cumulon/internal/lang"
	"cumulon/internal/store"
)

// Config controls compilation of a program into a physical plan.
type Config struct {
	// TileSize is the square tile edge length in elements.
	TileSize int
	// Densities estimates the nonzero fraction of each sparse input by
	// name; used for I/O cost estimation. Missing entries default to 1.
	Densities map[string]float64
	// DisableReorder turns off matrix-chain reordering (ablation knob).
	DisableReorder bool
	// DisableFusion turns off prologue/epilogue fusion into Mul jobs, so
	// every element-wise tree runs as its own Map job and every MatMul as
	// a bare Mul job (ablation knob; approximates one-operator-per-job
	// systems).
	DisableFusion bool
	// DisableCSE turns off the cross-statement common-subexpression
	// elimination / loop-invariant hoisting pass that runs in front of
	// lowering (ablation knob).
	DisableCSE bool
}

// ConfigFor is the default configuration for a program: the tile size,
// and one density estimate for every sparse input.
func ConfigFor(p *lang.Program, tileSize int, density float64) Config {
	cfg := Config{TileSize: tileSize, Densities: map[string]float64{}}
	for _, in := range p.Inputs {
		if in.Sparse {
			cfg.Densities[in.Name] = density
		}
	}
	return cfg
}

// CheckDensity is the entry points' rule for a sparse-input density: it
// lies in (0, 1]. Compile plans a missing or other entry as dense.
func CheckDensity(d float64) error {
	if !(d > 0 && d <= 1) {
		return fmt.Errorf("density must be in (0, 1], got %g", d)
	}
	return nil
}

// Compile lowers a validated program to a physical plan. Each statement
// becomes one or more jobs: nested matrix products materialize into
// temporary matrices, element-wise operators fuse into their consumers.
func Compile(p *lang.Program, cfg Config) (*Plan, error) {
	if cfg.TileSize <= 0 {
		return nil, fmt.Errorf("plan: tile size must be positive, got %d", cfg.TileSize)
	}
	if _, err := p.Validate(); err != nil {
		return nil, err
	}
	var rewrites *RewriteReport
	if !cfg.DisableCSE {
		var err error
		if p, rewrites, err = CSE(p); err != nil {
			return nil, err
		}
	}
	l := &lowerer{
		cfg:      cfg,
		plan:     &Plan{Program: p, TileSize: cfg.TileSize, Outputs: map[string]store.Meta{}},
		metaEnv:  map[string]store.Meta{},
		producer: map[string]int{},
		versions: map[string]int{},
	}
	for _, in := range p.Inputs {
		m := store.Meta{
			Name:     in.Name,
			Rows:     in.Rows,
			Cols:     in.Cols,
			TileSize: cfg.TileSize,
			Sparse:   in.Sparse,
		}
		if in.Sparse {
			// As configured: a materialized run draws the input at it (core),
			// the cost models read Meta.EffDensity.
			m.Density = cfg.Densities[in.Name]
		}
		l.number(&m)
		l.metaEnv[in.Name] = m
		l.plan.Inputs = append(l.plan.Inputs, m)
	}
	for si, st := range p.Stmts {
		if err := l.lowerAssign(si, st); err != nil {
			return nil, err
		}
		// Project iteration boundaries onto the job list as statements
		// complete. A boundary before the first statement has no jobs to
		// checkpoint and is dropped.
		if p.BoundaryAt(si+1) && len(l.plan.Jobs) > 0 {
			l.plan.Boundaries = append(l.plan.Boundaries, Boundary{Stmt: si + 1, LastJob: len(l.plan.Jobs) - 1})
		}
	}
	for _, o := range p.Outputs {
		l.plan.Outputs[o] = l.metaEnv[o]
	}
	l.plan.Rewrites = rewrites
	// A k-split product's partial c takes number len(Names) + c whatever its
	// job: a job's partials exist only while it runs, so no two matrices
	// that exist at once share a number, and a partial's number is the same
	// in every clone, whatever the splits.
	for _, j := range l.plan.Jobs {
		j.partials = int32(len(l.plan.Names))
	}
	// Compile the fused element-wise pipelines last: lowerMask mutates
	// jobs after they are added, so the tapes must only be built once
	// every job has its final shape.
	if err := l.plan.compilePrograms(); err != nil {
		return nil, err
	}
	return l.plan, nil
}

type lowerer struct {
	cfg      Config
	plan     *Plan
	metaEnv  map[string]store.Meta // program variable -> current stored matrix
	producer map[string]int        // stored matrix name -> producing job id
	versions map[string]int        // program variable -> assignment count
	nextTmp  int
}

func (l *lowerer) shapeEnv() map[string]lang.Shape {
	env := make(map[string]lang.Shape, len(l.metaEnv))
	for v, m := range l.metaEnv {
		env[v] = lang.Shape{Rows: m.Rows, Cols: m.Cols, Sparse: m.Sparse}
	}
	return env
}

// newMeta returns the meta of a matrix a job is to write, numbered.
func (l *lowerer) newMeta(name string, rows, cols int) store.Meta {
	m := store.Meta{Name: name, Rows: rows, Cols: cols, TileSize: l.cfg.TileSize}
	l.number(&m)
	return m
}

// number gives m, an input or a job's output, the plan's next matrix
// number, which every copy of the meta carries: its index in Names.
func (l *lowerer) number(m *store.Meta) {
	m.Num = int32(len(l.plan.Names))
	l.plan.Names = append(l.plan.Names, m.Name)
}

func (l *lowerer) tmpMeta(rows, cols int) store.Meta {
	l.nextTmp++
	return l.newMeta(fmt.Sprintf("_tmp%d", l.nextTmp), rows, cols)
}

func (l *lowerer) addJob(j *Job) *Job {
	j.ID = len(l.plan.Jobs)
	j.Split = Split{CI: 1, CJ: 1, CK: 1}
	l.plan.Jobs = append(l.plan.Jobs, j)
	l.producer[j.Out.Name] = j.ID
	return j
}

// lowerAssign compiles one statement. The rewritten right-hand side is cut
// into jobs; the statement's final job writes a fresh version of the
// assigned variable.
func (l *lowerer) lowerAssign(si int, st lang.Assign) error {
	env := l.shapeEnv()
	e := st.Expr
	var err error
	if l.cfg.DisableReorder {
		e = foldScale(pushTranspose(e, false))
	} else {
		e, err = Rewrite(e, env)
		if err != nil {
			return err
		}
	}
	sh, err := lang.InferShape(e, env)
	if err != nil {
		return err
	}
	l.versions[st.Name]++
	label := fmt.Sprintf("s%d/%s", si, st.Name)

	if root, ok := e.(lang.Mask); ok {
		if err := l.lowerMask(label, root, st.Name, si); err != nil {
			return err
		}
		return nil
	}
	outMeta := l.newMeta(fmt.Sprintf("%s#%d", st.Name, l.versions[st.Name]), sh.Rows, sh.Cols)
	if hasMask(e) {
		return fmt.Errorf("plan: statement %d: mask(...) is only supported as the whole right-hand side", si)
	}

	body, mms := extractMMs(e)
	fuseEpilogue := len(mms) == 1 && !l.cfg.DisableFusion
	if root, ok := e.(lang.MatMul); ok {
		// A bare product at the root is always a Mul job, fused or not.
		_, err := l.lowerMul(label, root, nil, nil, outMeta)
		if err != nil {
			return err
		}
	} else if fuseEpilogue {
		if _, err := l.lowerMul(label, mms[0], body, nil, outMeta); err != nil {
			return err
		}
	} else {
		// Zero or multiple products under element-wise operators: each
		// product materializes, the element-wise tree becomes a Map job.
		b := l.newBuilder(label+":map", MapKind, outMeta)
		expr, err := b.flatten(e)
		if err != nil {
			return err
		}
		b.job.Expr = expr
		l.addJob(b.job)
	}
	l.metaEnv[st.Name] = outMeta
	return nil
}

// hasMask reports whether e contains a Mask node.
func hasMask(e lang.Expr) bool {
	found := false
	lang.Walk(e, func(n lang.Expr) {
		if _, ok := n.(lang.Mask); ok {
			found = true
		}
	})
	return found
}

// lowerMask emits the masked-multiply job for a statement of the form
// name = mask(P, A*B). The pattern must be a (possibly transposed) sparse
// stored matrix and the value a single product; the output is stored
// sparse with the pattern's density.
func (l *lowerer) lowerMask(label string, root lang.Mask, varName string, si int) error {
	mm, ok := root.X.(lang.MatMul)
	if !ok {
		return fmt.Errorf("plan: statement %d: mask value must be a matrix product, got %s", si, root.X)
	}
	env := l.shapeEnv()
	sh, err := lang.InferShape(root, env)
	if err != nil {
		return err
	}
	l.versions[varName]++
	outMeta := l.newMeta(fmt.Sprintf("%s#%d", varName, l.versions[varName]), sh.Rows, sh.Cols)

	j, err := l.lowerMul(label, mm, nil, nil, outMeta)
	if err != nil {
		return err
	}
	// Bind the pattern leaf on the already-created job.
	b := &jobBuilder{l: l, job: j, nextLeaf: len(j.Leaves)}
	pexpr, err := b.flatten(root.P)
	if err != nil {
		return err
	}
	pvar, ok := pexpr.(lang.Var)
	if !ok {
		return fmt.Errorf("plan: statement %d: mask pattern must be a stored matrix, got %s", si, root.P)
	}
	ref := j.Leaves[pvar.Name]
	if !ref.Meta.Sparse {
		return fmt.Errorf("plan: statement %d: mask pattern %s is not sparse", si, root.P)
	}
	j.MaskLeaf = pvar.Name
	// The output inherits the pattern's sparsity.
	j.Out.Sparse = true
	j.Out.Density = ref.Meta.EffDensity()
	outMeta = j.Out
	l.metaEnv[varName] = outMeta
	l.producer[outMeta.Name] = j.ID
	return nil
}

// lowerMul emits the Mul job computing mm (with optional fused epilogue
// over MMVar) into outMeta, returning the created job. extraLeaves lets
// callers pre-bind epilogue leaves (unused today but kept for symmetry).
func (l *lowerer) lowerMul(label string, mm lang.MatMul, epilogue lang.Expr, extraLeaves map[string]LeafRef, outMeta store.Meta) (*Job, error) {
	b := l.newBuilder(label+":mul", MulKind, outMeta)
	for name, ref := range extraLeaves {
		b.job.Leaves[name] = ref
	}
	lop, rop := mm.L, mm.R
	if l.cfg.DisableFusion {
		var err error
		if lop, err = l.materializeIfComposite(label+":lhs", lop); err != nil {
			return nil, err
		}
		if rop, err = l.materializeIfComposite(label+":rhs", rop); err != nil {
			return nil, err
		}
	}
	lexpr, err := b.flatten(lop)
	if err != nil {
		return nil, err
	}
	rexpr, err := b.flatten(rop)
	if err != nil {
		return nil, err
	}
	b.job.LExpr, b.job.RExpr = lexpr, rexpr
	lsh, err := lang.InferShape(lop, l.shapeEnv())
	if err != nil {
		return nil, err
	}
	b.job.KSize = lsh.Cols
	if epilogue != nil {
		// Epilogue leaves were already flattened into `body` by extractMMs?
		// No: extractMMs keeps original Var/Transpose leaves; bind them now.
		ep, err := b.flattenEpilogue(epilogue)
		if err != nil {
			return nil, err
		}
		if v, ok := ep.(lang.Var); !ok || v.Name != MMVar {
			b.job.Epilogue = ep
		}
	}
	return l.addJob(b.job), nil
}

// materializeIfComposite forces a non-leaf operand into its own Map job
// (used when fusion is disabled).
func (l *lowerer) materializeIfComposite(label string, e lang.Expr) (lang.Expr, error) {
	switch e.(type) {
	case lang.Var, lang.Transpose:
		return e, nil
	}
	sh, err := lang.InferShape(e, l.shapeEnv())
	if err != nil {
		return nil, err
	}
	tmp := l.tmpMeta(sh.Rows, sh.Cols)
	b := l.newBuilder(label+":map", MapKind, tmp)
	expr, err := b.flatten(e)
	if err != nil {
		return nil, err
	}
	b.job.Expr = expr
	l.addJob(b.job)
	// Register the temp under its own name so flatten() can reference it.
	l.metaEnv[tmp.Name] = tmp
	return lang.Var{Name: tmp.Name}, nil
}

type jobBuilder struct {
	l        *lowerer
	job      *Job
	nextLeaf int
}

func (l *lowerer) newBuilder(name string, kind JobKind, out store.Meta) *jobBuilder {
	return &jobBuilder{
		l:   l,
		job: &Job{Name: name, Kind: kind, Out: out, Leaves: map[string]LeafRef{}},
	}
}

func (b *jobBuilder) leaf(meta store.Meta, transposed bool) lang.Expr {
	// Reuse an existing binding for the same (matrix, orientation) pair so
	// expressions like A .* A read the tile once.
	for name, ref := range b.job.Leaves {
		if ref.Meta.Name == meta.Name && ref.Transposed == transposed {
			return lang.Var{Name: name}
		}
	}
	name := fmt.Sprintf("$L%d", b.nextLeaf)
	b.nextLeaf++
	b.job.Leaves[name] = LeafRef{Meta: meta, Transposed: transposed}
	if id, ok := b.l.producer[meta.Name]; ok {
		b.addDep(id)
	}
	return lang.Var{Name: name}
}

func (b *jobBuilder) addDep(id int) {
	for _, d := range b.job.Deps {
		if d == id {
			return
		}
	}
	b.job.Deps = append(b.job.Deps, id)
}

// flatten rewrites e into an expression over fresh leaf variables bound in
// the job, materializing any nested matrix product into its own Mul job.
func (b *jobBuilder) flatten(e lang.Expr) (lang.Expr, error) {
	switch x := e.(type) {
	case lang.Var:
		meta, ok := b.l.metaEnv[x.Name]
		if !ok {
			return nil, fmt.Errorf("plan: unknown variable %s", x.Name)
		}
		return b.leaf(meta, false), nil
	case lang.Transpose:
		v, ok := x.X.(lang.Var)
		if !ok {
			return nil, fmt.Errorf("plan: transpose not pushed to a variable: %s", x)
		}
		meta, ok := b.l.metaEnv[v.Name]
		if !ok {
			return nil, fmt.Errorf("plan: unknown variable %s", v.Name)
		}
		return b.leaf(meta, true), nil
	case lang.MatMul:
		sh, err := lang.InferShape(x, b.l.shapeEnv())
		if err != nil {
			return nil, err
		}
		tmp := b.l.tmpMeta(sh.Rows, sh.Cols)
		if _, err := b.l.lowerMul(b.job.Name+"/nested", x, nil, nil, tmp); err != nil {
			return nil, err
		}
		b.l.metaEnv[tmp.Name] = tmp
		return b.leaf(tmp, false), nil
	case lang.Add:
		return b.flattenBinary(x.L, x.R, func(l, r lang.Expr) lang.Expr { return lang.Add{L: l, R: r} })
	case lang.Sub:
		return b.flattenBinary(x.L, x.R, func(l, r lang.Expr) lang.Expr { return lang.Sub{L: l, R: r} })
	case lang.ElemMul:
		return b.flattenBinary(x.L, x.R, func(l, r lang.Expr) lang.Expr { return lang.ElemMul{L: l, R: r} })
	case lang.ElemDiv:
		return b.flattenBinary(x.L, x.R, func(l, r lang.Expr) lang.Expr { return lang.ElemDiv{L: l, R: r} })
	case lang.Scale:
		inner, err := b.flatten(x.X)
		if err != nil {
			return nil, err
		}
		return lang.Scale{S: x.S, X: inner}, nil
	case lang.Apply:
		inner, err := b.flatten(x.X)
		if err != nil {
			return nil, err
		}
		return lang.Apply{Fn: x.Fn, X: inner}, nil
	case lang.Mask:
		return nil, fmt.Errorf("plan: mask(...) is only supported as the whole right-hand side of a statement")
	default:
		return nil, fmt.Errorf("plan: flatten: unknown node %T", e)
	}
}

func (b *jobBuilder) flattenBinary(l, r lang.Expr, mk func(l, r lang.Expr) lang.Expr) (lang.Expr, error) {
	lf, err := b.flatten(l)
	if err != nil {
		return nil, err
	}
	rf, err := b.flatten(r)
	if err != nil {
		return nil, err
	}
	return mk(lf, rf), nil
}

// flattenEpilogue is flatten for the epilogue tree of a Mul job: the MMVar
// placeholder passes through untouched, everything else binds as leaves.
func (b *jobBuilder) flattenEpilogue(e lang.Expr) (lang.Expr, error) {
	if v, ok := e.(lang.Var); ok && v.Name == MMVar {
		return v, nil
	}
	switch x := e.(type) {
	case lang.Add:
		return b.flattenEpilogueBinary(x.L, x.R, func(l, r lang.Expr) lang.Expr { return lang.Add{L: l, R: r} })
	case lang.Sub:
		return b.flattenEpilogueBinary(x.L, x.R, func(l, r lang.Expr) lang.Expr { return lang.Sub{L: l, R: r} })
	case lang.ElemMul:
		return b.flattenEpilogueBinary(x.L, x.R, func(l, r lang.Expr) lang.Expr { return lang.ElemMul{L: l, R: r} })
	case lang.ElemDiv:
		return b.flattenEpilogueBinary(x.L, x.R, func(l, r lang.Expr) lang.Expr { return lang.ElemDiv{L: l, R: r} })
	case lang.Scale:
		inner, err := b.flattenEpilogue(x.X)
		if err != nil {
			return nil, err
		}
		return lang.Scale{S: x.S, X: inner}, nil
	case lang.Apply:
		inner, err := b.flattenEpilogue(x.X)
		if err != nil {
			return nil, err
		}
		return lang.Apply{Fn: x.Fn, X: inner}, nil
	default:
		return b.flatten(e)
	}
}

func (b *jobBuilder) flattenEpilogueBinary(l, r lang.Expr, mk func(l, r lang.Expr) lang.Expr) (lang.Expr, error) {
	lf, err := b.flattenEpilogue(l)
	if err != nil {
		return nil, err
	}
	rf, err := b.flattenEpilogue(r)
	if err != nil {
		return nil, err
	}
	return mk(lf, rf), nil
}

// extractMMs returns e with every matrix product reachable from the root
// through element-wise operators replaced by MMVar, together with the list
// of extracted products. Products nested under other products (or under
// transposes) are not extracted — they belong to their enclosing product's
// prologues.
func extractMMs(e lang.Expr) (lang.Expr, []lang.MatMul) {
	switch x := e.(type) {
	case lang.MatMul:
		return lang.Var{Name: MMVar}, []lang.MatMul{x}
	case lang.Add:
		le, lm := extractMMs(x.L)
		re, rm := extractMMs(x.R)
		return lang.Add{L: le, R: re}, append(lm, rm...)
	case lang.Sub:
		le, lm := extractMMs(x.L)
		re, rm := extractMMs(x.R)
		return lang.Sub{L: le, R: re}, append(lm, rm...)
	case lang.ElemMul:
		le, lm := extractMMs(x.L)
		re, rm := extractMMs(x.R)
		return lang.ElemMul{L: le, R: re}, append(lm, rm...)
	case lang.ElemDiv:
		le, lm := extractMMs(x.L)
		re, rm := extractMMs(x.R)
		return lang.ElemDiv{L: le, R: re}, append(lm, rm...)
	case lang.Scale:
		ie, im := extractMMs(x.X)
		return lang.Scale{S: x.S, X: ie}, im
	case lang.Apply:
		ie, im := extractMMs(x.X)
		return lang.Apply{Fn: x.Fn, X: ie}, im
	default:
		return e, nil
	}
}

// Intermediates returns the stored matrices produced by jobs that are not
// program outputs; engines may garbage-collect them after execution.
func (p *Plan) Intermediates() []store.Meta {
	outs := map[string]bool{}
	for _, m := range p.Outputs {
		outs[m.Name] = true
	}
	var res []store.Meta
	for _, j := range p.Jobs {
		if !outs[j.Out.Name] {
			res = append(res, j.Out)
		}
	}
	return res
}
