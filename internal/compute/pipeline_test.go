package compute

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cumulon/internal/dfs"
	"cumulon/internal/lang"
	"cumulon/internal/linalg"
	"cumulon/internal/plan"
	"cumulon/internal/store"
)

// mapSource is an in-memory Source: a task-level stand-in for the DFS.
type mapSource map[dfs.TileAddr][]byte

func (s mapSource) PeekTile(a dfs.TileAddr) ([]byte, error) {
	b, ok := s[a]
	if !ok {
		return nil, fmt.Errorf("mapSource: no tile at %s", a.Path())
	}
	return b, nil
}

// loadInput encodes d tile by tile into src under m's tile addresses,
// sparse-encoded when the meta says so.
func loadInput(src mapSource, m store.Meta, d *linalg.Dense) {
	for ti := 0; ti < m.TileRows(); ti++ {
		for tj := 0; tj < m.TileCols(); tj++ {
			tile := d.TileAt(ti, tj, m.TileSize)
			if m.Sparse {
				src[m.Tile(ti, tj)] = store.EncodeSparseTile(linalg.DenseToCSR(tile))
			} else {
				src[m.Tile(ti, tj)] = store.EncodeTile(tile)
			}
		}
	}
}

// jobTasks builds the phase lists of one job as the engine does, from its
// plan.Phases, with one evaluator's task functions. With forceK, splittable
// Mul jobs are split with CK = 2 whatever their split says (partials plus
// aggregation).
func jobTasks(fns taskFns, env Env, j *plan.Job, forceK bool) [][]Task {
	if forceK && j.Kind == plan.MulKind && j.KTiles() > 1 && j.MaskLeaf == "" {
		cp := *j
		cp.Split.CK = 2
		j = &cp
	}
	phases := j.Phases()
	out := make([][]Task, len(phases))
	for p := range phases {
		out[p] = PhaseTasks(env, j, &phases[p])
		for i := range out[p] {
			out[p][i].Fn = fns[phases[p].Kind]
		}
	}
	return out
}

// runPlanDual executes every job of pl twice — compiled tapes vs the
// test-side tree-walker — against separate in-memory sources (none in
// virtual mode, where data is nil), and requires every task's Result
// (ordered I/O trace with encoded payloads, flop count, kernel stats) to be
// deeply identical between the two evaluators. With rerun, each tape task
// is computed a second time, as a backend that does not memoize would on a
// retry, and must reproduce its Result. Returns the compiled run's final
// source for output checks.
func runPlanDual(t *testing.T, pl *plan.Plan, data map[string]*linalg.Dense, forceK, rerun bool) mapSource {
	t.Helper()
	envOracle := Env{TileOps: true, Virtual: data == nil}
	envComp := envOracle
	srcOracle, srcComp := mapSource{}, mapSource{}
	if data != nil {
		for _, in := range pl.Inputs {
			loadInput(srcOracle, in, data[in.Name])
			loadInput(srcComp, in, data[in.Name])
		}
		envOracle.Src, envComp.Src = NewInputs(srcOracle), NewInputs(srcComp)
	}
	for _, j := range pl.Jobs {
		phOracle := jobTasks(oracleFns, envOracle, j, forceK)
		phComp := jobTasks(tapeFns, envComp, j, forceK)
		for p := range phOracle {
			for i := range phOracle[p] {
				ro, err := runTask(&phOracle[p][i])
				if err != nil {
					t.Fatalf("%s (tree-walker): %v", j, err)
				}
				rc, err := runTask(&phComp[p][i])
				if err != nil {
					t.Fatalf("%s (compiled): %v", j, err)
				}
				if !reflect.DeepEqual(ro, rc) {
					t.Fatalf("%s phase %d task %d: results diverge\ntree-walker: %+v\ncompiled:    %+v",
						j, p, i, ro, rc)
				}
				if rerun {
					again, err := runTask(&phComp[p][i])
					if err != nil {
						t.Fatalf("%s (compiled, rerun): %v", j, err)
					}
					if !reflect.DeepEqual(rc, again) {
						t.Fatalf("%s phase %d task %d: a recomputed task diverges from its first run", j, p, i)
					}
				}
				for _, op := range ro.Ops {
					if op.Write {
						srcOracle[op.Tile] = op.Data
					}
				}
				for _, op := range rc.Ops {
					if op.Write {
						srcComp[op.Tile] = op.Data
					}
				}
			}
		}
	}
	return srcComp
}

// fetchDense reassembles a matrix from a source's tiles, densifying sparse
// storage.
func fetchDense(t *testing.T, src mapSource, m store.Meta) *linalg.Dense {
	t.Helper()
	d := linalg.NewDense(m.Rows, m.Cols)
	for ti := 0; ti < m.TileRows(); ti++ {
		for tj := 0; tj < m.TileCols(); tj++ {
			raw, err := src.PeekTile(m.Tile(ti, tj))
			if err != nil {
				t.Fatal(err)
			}
			var tile *linalg.Tile
			if m.Sparse {
				var sp *linalg.CSRTile
				if sp, err = store.DecodeSparseTile(raw); err == nil {
					tile = sp.ToDense()
				}
			} else {
				tile, err = store.DecodeTile(raw)
			}
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tile.Rows; i++ {
				copy(d.Data[(ti*m.TileSize+i)*d.Cols+tj*m.TileSize:], tile.Data[i*tile.Cols:(i+1)*tile.Cols])
			}
		}
	}
	return d
}

// diffCase is one input of the task-level differential suite.
type diffCase struct {
	name      string
	src       string
	data      map[string]*linalg.Dense
	densities map[string]float64
	tileSizes []int
	// slots > 0 splits the jobs as the engine would for that many slots
	// (plan.AutoSplit); 0 keeps one task per job and phase.
	slots int
	// rerun recomputes every task once more (see runPlanDual).
	rerun bool
}

func shifted(d *linalg.Dense) *linalg.Dense {
	return d.Map(func(x float64) float64 { return x + 0.5 })
}

// gnmfCase is one GNMF iteration as the engine-level suites in package exec
// run it (26x22 at tile 4, split for 8 slots): k-split products with fused
// epilogues, transposed prologues, a sparse operand, ragged last tiles.
func gnmfCase(name string, rerun bool) diffCase {
	return diffCase{
		name: name,
		src: `
input V 26 22 sparse
input W 26 4
input H 4 22
H = H .* (W' * V) ./ ((W' * W) * H)
W = W .* (V * H') ./ (W * (H * H'))
output W
output H
`,
		data: map[string]*linalg.Dense{
			"V": linalg.RandomSparseDense(26, 22, 0.25, 31),
			"W": shifted(linalg.RandomDense(26, 4, 32)),
			"H": shifted(linalg.RandomDense(4, 22, 33)),
		},
		densities: map[string]float64{"V": 0.25},
		tileSizes: []int{4},
		slots:     8,
		rerun:     rerun,
	}
}

// maskedCase is a masked product whose prologues are expressions, not bare
// leaves: 13x11 over a 7-wide inner dimension, so every tile size below
// leaves a ragged last tile on all three axes.
func maskedCase(name, stmt string, inputs ...string) diffCase {
	src := "input V 13 11 sparse\n"
	data := map[string]*linalg.Dense{"V": linalg.RandomSparseDense(13, 11, 0.3, 61)}
	shapes := map[string][2]int{"L": {13, 7}, "Lt": {7, 13}, "R": {7, 11}, "Rt": {11, 7}}
	for i, in := range inputs {
		sh := shapes[strings.TrimRight(in, "0123456789")]
		src += fmt.Sprintf("input %s %d %d\n", in, sh[0], sh[1])
		data[in] = shifted(linalg.RandomDense(sh[0], sh[1], int64(62+i)))
	}
	return diffCase{
		name:      name,
		src:       src + stmt + "\noutput Out\n",
		data:      data,
		densities: map[string]float64{"V": 0.3},
		tileSizes: []int{3, 4, 16},
		slots:     6,
	}
}

// sparseSidesCase puts a bare sparse leaf on either side of a product, in
// every pairing mulTile tells apart. The tapes multiply all of them from
// the CSR form; the tree-walker densifies a sparse right operand and runs
// the dense kernels, so equal Results here are the proof that the CSR path
// moves no byte, read op or flop charge: a plain and a transposed sparse
// right leaf under an evaluated, a bare and a raw-transposed left operand,
// sparse on both sides (the left one wins), one tile read densely by the
// left prologue and as the right operand, and a sparse-right product under
// an epilogue that reads the operand again. 13 is ragged at every tile size.
func sparseSidesCase(name string, slots int) diffCase {
	return diffCase{
		name: name,
		src: `
input S 13 13 sparse
input A 9 13
input At 13 9
input D 13 13
O1 = A * S
O2 = (A + A) * S'
O3 = At' * S
O4 = At' * S'
O5 = S' * S
O6 = (S .* S) * S
O7 = S .* (D * S) ./ (S + D)
output O1
output O2
output O3
output O4
output O5
output O6
output O7
`,
		data: map[string]*linalg.Dense{
			"S":  linalg.RandomSparseDense(13, 13, 0.3, 81),
			"A":  shifted(linalg.RandomDense(9, 13, 82)),
			"At": shifted(linalg.RandomDense(13, 9, 83)),
			"D":  shifted(linalg.RandomDense(13, 13, 84)),
		},
		densities: map[string]float64{"S": 0.3},
		tileSizes: []int{4, 5, 16},
		slots:     slots,
	}
}

// diffCases lists the suite's programs: every task shape, the engine-level
// workloads that used to be differenced through exec's evaluator switch,
// and masked products with composite prologues.
func diffCases() []diffCase {
	return []diffCase{
		{
			// Every task shape in one program: a GNMF iteration, a masked
			// multiply, and a pure map statement with scale and a scalar
			// function.
			name: "tasks",
			src: `
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
`,
			data: map[string]*linalg.Dense{
				"V": linalg.RandomSparseDense(13, 11, 0.3, 41),
				"W": shifted(linalg.RandomDense(13, 3, 42)),
				"H": shifted(linalg.RandomDense(3, 11, 43)),
			},
			densities: map[string]float64{"V": 0.3},
			tileSizes: []int{3, 4, 16},
		},
		gnmfCase("gnmf", false),
		// The engine replays a task's memoized Result on a retry, so a
		// fault schedule cannot tell evaluators apart; what a retry can
		// add at this level is a second computation of the same task.
		gnmfCase("gnmf-recomputed", true),
		{
			// The sketching stage of randomized SVD with two power
			// iterations: transposed prologues and deep product chains, no
			// epilogues.
			name: "rsvd",
			src: `
input A 24 16
input Omega 16 4
B = A * Omega
B = A * (A' * B)
B = A * (A' * B)
output B
`,
			data: map[string]*linalg.Dense{
				"A":     linalg.RandomDense(24, 16, 51),
				"Omega": linalg.RandomDense(16, 4, 52),
			},
			tileSizes: []int{4},
			slots:     6,
		},
		{
			// Two KL-divergence GNMF iterations: the CSE pass hoists one
			// V ./ (W * H) chain per iteration into a shared temporary.
			name: "gnmf-kl",
			src: `
input V 12 10 sparse
input W 12 3
input H 3 10
input U 12 10
Hn = H .* (W' * (V ./ (W * H))) ./ (W' * U)
W = W .* ((V ./ (W * H)) * H') ./ (U * H')
H = Hn
Hn = H .* (W' * (V ./ (W * H))) ./ (W' * U)
W = W .* ((V ./ (W * H)) * H') ./ (U * H')
H = Hn
output W
output H
`,
			data: map[string]*linalg.Dense{
				"V": linalg.RandomSparseDense(12, 10, 0.4, 11),
				"W": shifted(linalg.RandomDense(12, 3, 12)),
				"H": shifted(linalg.RandomDense(3, 10, 13)),
				"U": linalg.ConstDense(12, 10, 1),
			},
			densities: map[string]float64{"V": 0.4},
			tileSizes: []int{4},
			slots:     6,
		},
		// One task per job: whole-k products (the in-place epilogue) and
		// every tile of an operand meeting in one task's caches.
		sparseSidesCase("sparse-sides", 0),
		sparseSidesCase("sparse-sides-split", 6),
		maskedCase("masked-composite", "Out = mask(V, (L1 + L2) * (2 * R1))", "L1", "L2", "R1"),
		maskedCase("masked-transposed", "Out = mask(V, Lt1' * Rt1')", "Lt1", "Rt1"),
		maskedCase("masked-composite-transposed", "Out = mask(V, (Lt1' - L1) * sqrt(R1 .* Rt1'))", "Lt1", "L1", "R1", "Rt1"),
	}
}

// compile parses and compiles the case at one tile size and splits it.
func (c diffCase) compile(t *testing.T, ts int) (*lang.Program, *plan.Plan) {
	t.Helper()
	prog, err := lang.Parse(c.src)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.Compile(prog, plan.Config{TileSize: ts, Densities: c.densities})
	if err != nil {
		t.Fatal(err)
	}
	if c.slots > 0 {
		pl.AutoSplit(c.slots)
	}
	return prog, pl
}

// TestCompiledTasksMatchInterpreter is the task-level differential suite:
// identical Results (trace order, payload bytes, flops, kernel stats)
// between the compiled tapes and the tree-walker for every job kind and
// every case, under the plan's splits and under a forced k-split, and
// final outputs that agree with the language reference interpreter.
func TestCompiledTasksMatchInterpreter(t *testing.T) {
	for _, c := range diffCases() {
		t.Run(c.name, func(t *testing.T) {
			for _, ts := range c.tileSizes {
				for _, forceK := range []bool{false, true} {
					prog, pl := c.compile(t, ts)
					want, err := lang.Interpret(prog, c.data)
					if err != nil {
						t.Fatal(err)
					}
					src := runPlanDual(t, pl, c.data, forceK, c.rerun)
					for name, m := range pl.Outputs {
						got := fetchDense(t, src, m)
						if !got.AlmostEqual(want[name], 1e-9) {
							t.Fatalf("ts=%d forceK=%v: output %s off oracle by %g",
								ts, forceK, name, got.MaxAbsDiff(want[name]))
						}
					}
				}
			}
		})
	}
}

// TestDeepTapesMatchTreeWalker: tapes that need more operand buffers than
// the fixed ones (MaxStack > maxFastStack) — a map, and a product's
// prologue and epilogue — run on the one chunked evaluator, bit for bit
// what the tree-walker computes.
func TestDeepTapesMatchTreeWalker(t *testing.T) {
	const deep = "A + (B .* (A - (B ./ (A + (2 * B - (A .* (B + (A - (B .* (A + sqrt(B .* A)))))))))))"
	epi := strings.NewReplacer("A", "D", "B", "E").Replace(deep)
	c := diffCase{
		src: "input A 9 7\ninput B 9 7\ninput C 7 5\ninput D 5 5\ninput E 5 5\n" +
			"X = " + deep + "\nY = (" + deep + ") * C\nZ = (Y' * Y) .* (" + epi + ")\noutput X\noutput Y\noutput Z\n",
		data: map[string]*linalg.Dense{
			"A": shifted(linalg.RandomDense(9, 7, 61)),
			"B": shifted(linalg.RandomDense(9, 7, 62)),
			"C": linalg.RandomDense(7, 5, 63),
			"D": shifted(linalg.RandomDense(5, 5, 64)),
			"E": shifted(linalg.RandomDense(5, 5, 65)),
		},
	}
	for _, ts := range []int{4, 16} {
		prog, pl := c.compile(t, ts)
		tapes := 0
		for _, j := range pl.Jobs {
			for _, p := range []*plan.TileProgram{j.Prog, j.LProg, j.RProg, j.EpiProg} {
				if p != nil && p.MaxStack > maxFastStack {
					tapes++
				}
			}
		}
		if tapes < 3 {
			t.Fatalf("ts=%d: %d tapes deeper than %d; the case exercises too little", ts, tapes, maxFastStack)
		}
		want, err := lang.Interpret(prog, c.data)
		if err != nil {
			t.Fatal(err)
		}
		src := runPlanDual(t, pl, c.data, false, false)
		for name, m := range pl.Outputs {
			if got := fetchDense(t, src, m); !got.AlmostEqual(want[name], 1e-9) {
				t.Fatalf("ts=%d: output %s off oracle by %g", ts, name, got.MaxAbsDiff(want[name]))
			}
		}
	}
}

// TestCompiledTasksVirtual repeats the differential check in virtual
// mode, where only traces, sizes and flop counts exist.
func TestCompiledTasksVirtual(t *testing.T) {
	for _, c := range diffCases() {
		t.Run(c.name, func(t *testing.T) {
			for _, ts := range c.tileSizes {
				for _, forceK := range []bool{false, true} {
					_, pl := c.compile(t, ts)
					runPlanDual(t, pl, nil, forceK, c.rerun)
				}
			}
		})
	}
}

// TestMisshapenSparseTileFailsTask: a well-formed sparse payload of the
// wrong shape is a one-line task error wherever the CSR form is consumed —
// as the left or the right operand of a product, as a mask, densified —
// and never reaches a kernel, whose shape checks panic.
func TestMisshapenSparseTileFailsTask(t *testing.T) {
	for _, stmt := range []string{"S * B", "S' * B", "B * S", "B * S'", "mask(S, B * B)", "S + B"} {
		prog, err := lang.Parse("input S 8 8 sparse\ninput B 8 8\nOut = " + stmt + "\noutput Out\n")
		if err != nil {
			t.Fatal(err)
		}
		pl, err := plan.Compile(prog, plan.Config{TileSize: 4, Densities: map[string]float64{"S": 0.3}})
		if err != nil {
			t.Fatal(err)
		}
		src := mapSource{}
		for _, in := range pl.Inputs {
			loadInput(src, in, shifted(linalg.RandomDense(8, 8, 91)))
			if in.Sparse {
				bad := linalg.RandomSparseDense(3, 4, 0.5, 92).TileAt(0, 0, 4)
				src[in.Tile(1, 0)] = store.EncodeSparseTile(linalg.DenseToCSR(bad))
			}
		}
		var got error
		for _, j := range pl.Jobs {
			for _, phase := range jobTasks(tapeFns, Env{Src: NewInputs(src)}, j, false) {
				for i := range phase {
					if _, err := runTask(&phase[i]); err != nil {
						got = err
					}
				}
			}
		}
		if got == nil || !strings.Contains(got.Error(), "is stored 3x4, want 4x4") {
			t.Errorf("%s: task error = %v, want the stored-shape mismatch", stmt, got)
		}
	}
}

// TestMulSparseRightSteadyState: a sparse-right product multiplies from
// the CSR form — nothing of the operand is densified — and once the pools
// and the task's caches are warm it allocates nothing: the transposed
// accumulator and the output tile both come from the tile pool.
func TestMulSparseRightSteadyState(t *testing.T) {
	c, j := sparseRightJob(t, 64, 8)
	ks := Span{Lo: 0, Hi: j.KTiles()}
	run := func() {
		acc, err := c.mulTile(j, 0, 0, ks, nil)
		if err != nil {
			t.Fatal(err)
		}
		freeTile(acc)
	}
	run()
	if _, csr := c.sparse[csrKey{dfs.TileAddr{Matrix: "V"}, true}]; !csr || len(c.sparse) != 1 {
		t.Fatalf("V was not read once, as CSR in the dense format: %v", c.sparse)
	}
	if _, densified := c.dense[dfs.TileAddr{Matrix: "V"}]; densified || c.dense[dfs.TileAddr{Matrix: "W"}].tt != nil {
		t.Fatalf("a sparse-right product densified or copied an operand: %v", c.dense)
	}
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	if n := testing.AllocsPerRun(50, run); n != 0 {
		t.Fatalf("a warm sparse-right mulTile allocates %v objects per call, want 0", n)
	}
}

// fuzzLeaves declares the closed leaf set fuzz expressions draw from:
// element-wise operands A, B, C (r x c), a transposed operand D (c x r),
// product factors P (r x k), Q (k x c), and sparse right factors S (k x c)
// and St (c x k, read transposed).
func fuzzLeaves(r, c, k int) []lang.Input {
	return []lang.Input{
		{Name: "A", Rows: r, Cols: c},
		{Name: "B", Rows: r, Cols: c},
		{Name: "C", Rows: r, Cols: c},
		{Name: "D", Rows: c, Cols: r},
		{Name: "P", Rows: r, Cols: k},
		{Name: "Q", Rows: k, Cols: c},
		{Name: "S", Rows: k, Cols: c, Sparse: true},
		{Name: "St", Rows: c, Cols: k, Sparse: true},
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
			// The high nibble picks the right factor: dense, sparse, or
			// sparse through a transposed access path.
			var right lang.Expr = lang.Var{Name: "Q"}
			switch mod % 3 {
			case 1:
				right = lang.Var{Name: "S"}
			case 2:
				right = lang.Transpose{X: lang.Var{Name: "St"}}
			}
			stack = append(stack, lang.MatMul{L: lang.Var{Name: "P"}, R: right})
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
// leaves, matrix products (dense and sparse right factors) with fused
// epilogues, optional k-splitting and virtual mode — the Results must be
// deeply identical, payload bytes included.
func FuzzTilePipeline(f *testing.F) {
	f.Add(uint8(5), uint8(7), uint8(3), uint8(2), false, []byte{4, 0, 7, 10, 2, 5})
	f.Add(uint8(9), uint8(9), uint8(9), uint8(4), true, []byte{4, 3, 8, 9, 1, 5, 2, 7})
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), false, []byte{0})
	f.Add(uint8(8), uint8(6), uint8(5), uint8(3), true, []byte{0, 1, 5, 4, 8, 10, 2, 6, 3, 7})
	f.Add(uint8(7), uint8(6), uint8(5), uint8(3), false, []byte{0x1a, 0, 7, 0x25, 5}) // (P*S) .* A + P*St'
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
			if in.Sparse {
				data[in.Name] = linalg.RandomSparseDense(in.Rows, in.Cols, 0.4, int64(71+i))
			} else {
				data[in.Name] = linalg.RandomDense(in.Rows, in.Cols, int64(71+i)).Map(shift)
			}
		}
		runPlanDual(t, pl, data, kSplit, false)
	})
}
