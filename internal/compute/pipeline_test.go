package compute

import (
	"fmt"
	"reflect"
	"testing"

	"cumulon/internal/lang"
	"cumulon/internal/linalg"
	"cumulon/internal/plan"
	"cumulon/internal/store"
)

// mapSource is an in-memory Source: a task-level stand-in for the DFS.
type mapSource map[string][]byte

func (s mapSource) Peek(path string) ([]byte, error) {
	b, ok := s[path]
	if !ok {
		return nil, fmt.Errorf("mapSource: no tile at %s", path)
	}
	return b, nil
}

// loadInput encodes d tile by tile into src under m's tile paths,
// sparse-encoded when the meta says so.
func loadInput(src mapSource, m store.Meta, d *linalg.Dense) {
	for ti := 0; ti < m.TileRows(); ti++ {
		for tj := 0; tj < m.TileCols(); tj++ {
			tile := d.TileAt(ti, tj, m.TileSize)
			if m.Sparse {
				src[m.TilePath(ti, tj)] = store.EncodeSparseTile(linalg.DenseToCSR(tile))
			} else {
				src[m.TilePath(ti, tj)] = store.EncodeTile(tile)
			}
		}
	}
}

// jobTasks builds the phase lists of one job the way the engine does,
// optionally forcing a two-way k-split (partials plus aggregation) on
// splittable Mul jobs.
func jobTasks(env Env, j *plan.Job, kSplit bool) [][]*Task {
	full := func(n int) Span { return Span{Lo: 0, Hi: n} }
	is, js := full(j.ITiles()), full(j.JTiles())
	switch {
	case j.Kind == plan.MapKind:
		return [][]*Task{{NewMapTask(env, j, is, js)}}
	case j.MaskLeaf != "":
		return [][]*Task{{NewMaskedMulTask(env, j, j.Leaves[j.MaskLeaf], is, js, full(j.KTiles()))}}
	case kSplit && j.KTiles() > 1:
		kSpans := plan.PartitionAxis(j.KTiles(), 2)
		var partials []store.Meta
		for c := range kSpans {
			pm := j.Out
			pm.Name = fmt.Sprintf("%s~p%d", j.Out.Name, c)
			pm.Sparse = false
			partials = append(partials, pm)
		}
		var phase1 []*Task
		for kc, ks := range kSpans {
			phase1 = append(phase1, NewMulTask(env, j, partials[kc], nil, is, js, ks))
		}
		return [][]*Task{phase1, {NewAggTask(env, j, partials, is, js)}}
	default:
		return [][]*Task{{NewMulTask(env, j, j.Out, j.Epilogue, is, js, full(j.KTiles()))}}
	}
}

// runPlanDual executes every job of pl twice — compiled tapes vs the
// tree-walking interpreter — against separate in-memory sources, and
// requires every task's Result (ordered I/O trace with encoded payloads,
// flop count, kernel stats) to be deeply identical between the two
// evaluators. Returns the compiled run's final source for output checks.
func runPlanDual(t *testing.T, pl *plan.Plan, data map[string]*linalg.Dense, kSplit bool) mapSource {
	t.Helper()
	srcInterp, srcComp := mapSource{}, mapSource{}
	for _, in := range pl.Inputs {
		loadInput(srcInterp, in, data[in.Name])
		loadInput(srcComp, in, data[in.Name])
	}
	be := NewSequential()
	envInterp := Env{Src: srcInterp, TileOps: true, Interpret: true}
	envComp := Env{Src: srcComp, TileOps: true}
	for _, j := range pl.Jobs {
		phInterp := jobTasks(envInterp, j, kSplit)
		phComp := jobTasks(envComp, j, kSplit)
		for p := range phInterp {
			for i := range phInterp[p] {
				ri, err := be.Run(phInterp[p][i])
				if err != nil {
					t.Fatalf("%s (interp): %v", j, err)
				}
				rc, err := be.Run(phComp[p][i])
				if err != nil {
					t.Fatalf("%s (compiled): %v", j, err)
				}
				if !reflect.DeepEqual(ri, rc) {
					t.Fatalf("%s phase %d task %d: results diverge\ninterp:   %+v\ncompiled: %+v",
						j, p, i, ri, rc)
				}
				for _, res := range []*Result{ri, rc} {
					src := srcInterp
					if res == rc {
						src = srcComp
					}
					for _, op := range res.Ops {
						if op.Write {
							src[op.Path] = op.Data
						}
					}
				}
			}
		}
	}
	return srcComp
}

// fetchDense reassembles a dense matrix from a source's tiles.
func fetchDense(t *testing.T, src mapSource, m store.Meta) *linalg.Dense {
	t.Helper()
	d := linalg.NewDense(m.Rows, m.Cols)
	for ti := 0; ti < m.TileRows(); ti++ {
		for tj := 0; tj < m.TileCols(); tj++ {
			raw, err := src.Peek(m.TilePath(ti, tj))
			if err != nil {
				t.Fatal(err)
			}
			tile, err := store.DecodeTile(raw)
			if err != nil {
				t.Fatal(err)
			}
			d.SetTile(ti, tj, m.TileSize, tile)
		}
	}
	return d
}

// diffSrc covers every task shape in one program: a GNMF iteration
// (k-split products with fused epilogues, transposed prologues, a sparse
// operand), a masked multiply, and a pure map statement with scale and a
// scalar function.
const diffSrc = `
input V 13 11 sparse
input W 13 3
input H 3 11
H = H .* (W' * V) ./ ((W' * W) * H)
W = W .* (V * H') ./ (W * (H * H'))
R = mask(V, W * H)
W = 0.5 * W + sqrt(W .* W)
output W
output H
output R
`

func diffData() map[string]*linalg.Dense {
	shift := func(x float64) float64 { return x + 0.5 }
	return map[string]*linalg.Dense{
		"V": linalg.RandomSparseDense(13, 11, 0.3, 41),
		"W": linalg.RandomDense(13, 3, 42).Map(shift),
		"H": linalg.RandomDense(3, 11, 43).Map(shift),
	}
}

// TestCompiledTasksMatchInterpreter is the task-level differential suite:
// identical Results (trace order, payload bytes, flops, kernel stats) for
// every job kind, with and without k-splitting, and final outputs that
// agree with the language reference interpreter.
func TestCompiledTasksMatchInterpreter(t *testing.T) {
	prog, err := lang.Parse(diffSrc)
	if err != nil {
		t.Fatal(err)
	}
	data := diffData()
	want, err := lang.Interpret(prog, data)
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range []int{3, 4, 16} {
		for _, kSplit := range []bool{false, true} {
			pl, err := plan.Compile(prog, plan.Config{TileSize: ts, Densities: map[string]float64{"V": 0.3}})
			if err != nil {
				t.Fatal(err)
			}
			src := runPlanDual(t, pl, data, kSplit)
			for name, m := range pl.Outputs {
				if m.Sparse {
					continue // masked output: dual equality above is the contract
				}
				got := fetchDense(t, src, m)
				if !got.AlmostEqual(want[name], 1e-9) {
					t.Fatalf("ts=%d kSplit=%v: output %s off oracle by %g",
						ts, kSplit, name, got.MaxAbsDiff(want[name]))
				}
			}
		}
	}
}

// TestCompiledTasksVirtual repeats the differential check in virtual
// mode, where only traces, sizes and flop counts exist.
func TestCompiledTasksVirtual(t *testing.T) {
	prog, err := lang.Parse(diffSrc)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.Compile(prog, plan.Config{TileSize: 4, Densities: map[string]float64{"V": 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	be := NewSequential()
	for _, kSplit := range []bool{false, true} {
		for _, j := range pl.Jobs {
			phInterp := jobTasks(Env{Virtual: true, TileOps: true, Interpret: true}, j, kSplit)
			phComp := jobTasks(Env{Virtual: true, TileOps: true}, j, kSplit)
			for p := range phInterp {
				for i := range phInterp[p] {
					ri, err := be.Run(phInterp[p][i])
					if err != nil {
						t.Fatal(err)
					}
					rc, err := be.Run(phComp[p][i])
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(ri, rc) {
						t.Fatalf("%s kSplit=%v: virtual results diverge\ninterp:   %+v\ncompiled: %+v",
							j, kSplit, ri, rc)
					}
				}
			}
		}
	}
}

// fuzzLeaves declares the closed leaf set fuzz expressions draw from:
// element-wise operands A, B, C (r x c), a transposed operand D (c x r),
// and product factors P (r x k), Q (k x c).
func fuzzLeaves(r, c, k int) []lang.Input {
	return []lang.Input{
		{Name: "A", Rows: r, Cols: c},
		{Name: "B", Rows: r, Cols: c},
		{Name: "C", Rows: r, Cols: c},
		{Name: "D", Rows: c, Cols: r},
		{Name: "P", Rows: r, Cols: k},
		{Name: "Q", Rows: k, Cols: c},
	}
}

// fuzzExpr decodes bytes into a well-shaped expression over the fuzz
// leaves with a postfix stack machine, so every input maps to a valid
// (r x c) element-wise tree, possibly containing transposed leaves and
// extractable matrix products.
func fuzzExpr(code []byte) lang.Expr {
	if len(code) > 32 {
		code = code[:32]
	}
	var stack []lang.Expr
	pop := func() lang.Expr {
		if len(stack) == 0 {
			return lang.Var{Name: "A"}
		}
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return e
	}
	for _, b := range code {
		mod := int(b >> 4)
		switch b % 11 {
		case 0:
			stack = append(stack, lang.Var{Name: "A"})
		case 1:
			stack = append(stack, lang.Var{Name: "B"})
		case 2:
			stack = append(stack, lang.Var{Name: "C"})
		case 3:
			stack = append(stack, lang.Transpose{X: lang.Var{Name: "D"}})
		case 4:
			stack = append(stack, lang.MatMul{L: lang.Var{Name: "P"}, R: lang.Var{Name: "Q"}})
		case 5:
			r, l := pop(), pop()
			stack = append(stack, lang.Add{L: l, R: r})
		case 6:
			r, l := pop(), pop()
			stack = append(stack, lang.Sub{L: l, R: r})
		case 7:
			r, l := pop(), pop()
			stack = append(stack, lang.ElemMul{L: l, R: r})
		case 8:
			r, l := pop(), pop()
			stack = append(stack, lang.ElemDiv{L: l, R: r})
		case 9:
			stack = append(stack, lang.Scale{S: float64(mod+1) / 2, X: pop()})
		case 10:
			stack = append(stack, lang.Apply{Fn: lang.FuncNames[mod%len(lang.FuncNames)], X: pop()})
		}
	}
	e := pop()
	for len(stack) > 0 {
		e = lang.Add{L: pop(), R: e}
	}
	return e
}

// FuzzTilePipeline differences the compiled tile pipelines against the
// tree-walking interpreter on randomly generated element-wise programs:
// arbitrary shapes and tile sizes, arbitrary operator trees, transposed
// leaves, matrix products with fused epilogues, optional k-splitting and
// virtual mode — the Results must be deeply identical, payload bytes
// included.
func FuzzTilePipeline(f *testing.F) {
	f.Add(uint8(5), uint8(7), uint8(3), uint8(2), false, []byte{4, 0, 7, 10, 2, 5})
	f.Add(uint8(9), uint8(9), uint8(9), uint8(4), true, []byte{4, 3, 8, 9, 1, 5, 2, 7})
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), false, []byte{0})
	f.Add(uint8(8), uint8(6), uint8(5), uint8(3), true, []byte{0, 1, 5, 4, 8, 10, 2, 6, 3, 7})
	f.Fuzz(func(t *testing.T, rb, cb, kb, tb uint8, kSplit bool, code []byte) {
		r, c, k := 1+int(rb)%9, 1+int(cb)%9, 1+int(kb)%9
		ts := 1 + int(tb)%4
		prog := &lang.Program{
			Name:    "fuzz",
			Inputs:  fuzzLeaves(r, c, k),
			Stmts:   []lang.Assign{{Name: "Out", Expr: fuzzExpr(code)}},
			Outputs: []string{"Out"},
		}
		pl, err := plan.Compile(prog, plan.Config{TileSize: ts})
		if err != nil {
			t.Skip(err)
		}
		shift := func(x float64) float64 { return x + 0.5 }
		data := map[string]*linalg.Dense{}
		for i, in := range prog.Inputs {
			data[in.Name] = linalg.RandomDense(in.Rows, in.Cols, int64(71+i)).Map(shift)
		}
		runPlanDual(t, pl, data, kSplit)
	})
}
