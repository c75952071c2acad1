package plan

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cumulon/internal/lang"
)

// The oracle: the per-task enumerator TaskProfiles used before profiles
// took class form. It walks the expression trees per task (freeVars, the
// Leaves lookup, the MMVar skip) and evaluates every task's work on its
// own spans, so it shares neither the compile-time leaf lists nor the class
// grouping with the production path.

func oracleOps(e lang.Expr) int64 {
	if e == nil {
		return 0
	}
	var n int64
	lang.Walk(e, func(x lang.Expr) {
		switch x.(type) {
		case lang.Elem, lang.Scale, lang.Apply:
			n++
		}
	})
	return n
}

// freeVars returns the distinct variable names referenced by e, in first
// appearance order.
func freeVars(e lang.Expr) []string {
	var out []string
	seen := map[string]bool{}
	lang.Walk(e, func(n lang.Expr) {
		if v, ok := n.(lang.Var); ok && !seen[v.Name] {
			seen[v.Name] = true
			out = append(out, v.Name)
		}
	})
	return out
}

func TestFreeVars(t *testing.T) {
	e, err := lang.ParseExpr("A .* (B * A) + C'")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := freeVars(e), []string{"A", "B", "C"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("freeVars = %v, want %v", got, want)
	}
}

func oracleRegionBytes(expr lang.Expr, leaves map[string]LeafRef, rows, cols Span) int64 {
	var n int64
	for _, name := range freeVars(expr) {
		if name == MMVar {
			continue
		}
		if ref, ok := leaves[name]; ok {
			n += regionBytes(ref, rows, cols)
		}
	}
	return n
}

func oracleTaskProfiles(j *Job) [][]TaskWork {
	iSpans := PartitionAxis(j.ITiles(), j.Split.CI)
	jSpans := PartitionAxis(j.JTiles(), j.Split.CJ)
	ts := j.Out.TileSize
	if j.Kind != MulKind {
		ops := oracleOps(j.Expr)
		var tasks []TaskWork
		for _, is := range iSpans {
			for _, js := range jSpans {
				tasks = append(tasks, TaskWork{
					Flops:      ops * extent(is, j.Out.Rows, ts) * extent(js, j.Out.Cols, ts),
					ReadBytes:  oracleRegionBytes(j.Expr, j.Leaves, is, js),
					WriteBytes: outRegionBytes(j.Out, is, js),
				})
			}
		}
		return [][]TaskWork{tasks}
	}
	kSpans := PartitionAxis(j.KTiles(), j.Split.CK)
	singleK := len(kSpans) == 1
	density := 1.0
	if ref, ok := BareLeaf(j.LExpr, j.Leaves); ok && ref.Meta.Sparse {
		density = ref.Meta.EffDensity()
	}
	maskRef, masked := j.Leaves[j.MaskLeaf]
	if masked {
		density = maskRef.Meta.EffDensity()
	}
	lOps, rOps, epiOps := oracleOps(j.LExpr), oracleOps(j.RExpr), oracleOps(j.Epilogue)

	var phase1 []TaskWork
	for _, is := range iSpans {
		for _, js := range jSpans {
			for _, ks := range kSpans {
				extI := extent(is, j.Out.Rows, ts)
				extJ := extent(js, j.Out.Cols, ts)
				extK := extent(ks, j.KSize, ts)
				tilesI := int64(is.Len())
				tilesJ := int64(js.Len())
				w := TaskWork{}
				w.Flops = int64(2*density*float64(extI)*float64(extK)*float64(extJ)) +
					lOps*extI*extK*tilesJ + rOps*extK*extJ*tilesI
				w.ReadBytes = oracleRegionBytes(j.LExpr, j.Leaves, is, ks) +
					oracleRegionBytes(j.RExpr, j.Leaves, ks, js)
				if masked {
					w.ReadBytes += regionBytes(maskRef, is, js)
				}
				if singleK {
					w.Flops += epiOps * extI * extJ
					if j.Epilogue != nil {
						w.ReadBytes += oracleRegionBytes(j.Epilogue, j.Leaves, is, js)
					}
					w.WriteBytes = outRegionBytes(j.Out, is, js)
				} else {
					w.WriteBytes = extI*extJ*8 + 16*tilesI*tilesJ
				}
				phase1 = append(phase1, w)
			}
		}
	}
	if singleK {
		return [][]TaskWork{phase1}
	}
	ck := int64(len(kSpans))
	var phase2 []TaskWork
	for _, is := range iSpans {
		for _, js := range jSpans {
			extI := extent(is, j.Out.Rows, ts)
			extJ := extent(js, j.Out.Cols, ts)
			partialChunk := extI*extJ*8 + 16*int64(is.Len())*int64(js.Len())
			w := TaskWork{
				Flops:      (ck-1)*extI*extJ + epiOps*extI*extJ,
				ReadBytes:  ck * partialChunk,
				WriteBytes: outRegionBytes(j.Out, is, js),
			}
			if j.Epilogue != nil {
				w.ReadBytes += oracleRegionBytes(j.Epilogue, j.Leaves, is, js)
			}
			phase2 = append(phase2, w)
		}
	}
	return [][]TaskWork{phase1, phase2}
}

// profilePrograms covers the shapes of job the lowerer emits: bare and
// prologue-carrying products, transposed and sparse leaves, a sparse left
// operand, a masked multiply, fused epilogues reading extra leaves, and map
// jobs with repeated and transposed leaves. %[1]d, %[2]d, %[3]d are m, n, k.
var profilePrograms = []string{
	"input A %[1]d %[3]d\ninput B %[3]d %[2]d\nC = A * B\noutput C",
	"input W %[3]d %[1]d\ninput V %[3]d %[2]d sparse\nC = W' * V\noutput C",
	"input V %[1]d %[3]d sparse\ninput H %[2]d %[3]d\nX = V * H'\noutput X",
	"input V %[1]d %[2]d sparse\ninput W %[1]d %[3]d\ninput H %[3]d %[2]d\nX = mask(V, W * H)\noutput X",
	"input A %[1]d %[3]d\ninput A2 %[1]d %[3]d\ninput B %[3]d %[2]d\ninput E %[2]d %[1]d\nC = E' .* ((A + A2 .* A) * abs(B)) ./ E'\noutput C",
	"input V %[1]d %[2]d sparse\ninput W %[1]d %[3]d\ninput H %[3]d %[2]d\nH = H .* (W' * V) ./ ((W' * W) * H)\nW = W .* (V * H') ./ (W * (H * H'))\noutput W\noutput H",
	"input A %[1]d %[2]d\ninput B %[2]d %[1]d\ninput S %[1]d %[2]d sparse\nC = abs(A .* A) + 0.5 * B' - S .* A\noutput C",
}

func TestProfileExpandsToOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dim := func() int { return 1 + rng.Intn(45) }
	jobs, twoPhase, ragged, masked := 0, 0, 0, 0
	for trial := 0; trial < 300; trial++ {
		src := fmt.Sprintf(profilePrograms[trial%len(profilePrograms)], dim(), dim(), dim())
		ts := 2 + rng.Intn(6)
		pl := compileSrc(t, src, Config{
			TileSize:  ts,
			Densities: map[string]float64{"V": 0.05 + 0.9*rng.Float64(), "S": 0.3},
		})
		var memo ProfileMemo
		for _, j := range pl.Jobs {
			// Splits range past the grid: PartitionAxis clamps them.
			j.Split = Split{CI: 1 + rng.Intn(j.ITiles()+2), CJ: 1 + rng.Intn(j.JTiles()+2), CK: 1}
			if j.Kind == MulKind && j.MaskLeaf == "" {
				j.Split.CK = 1 + rng.Intn(j.KTiles()+2)
			}
			want := oracleTaskProfiles(j)
			if got := TaskProfiles(j); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d tile %d %s\n%s\nTaskProfiles = %v\noracle       = %v", trial, ts, j, src, got, want)
			}
			profile := Profile(j)
			for pi, ph := range profile {
				if len(ph.Work) > 27 {
					t.Fatalf("trial %d %s phase %d: %d classes", trial, j, pi, len(ph.Work))
				}
			}
			// The memo serves clones of the job from one entry and
			// tells splits apart.
			cp := *j
			if got := memo.Profile(&cp); !reflect.DeepEqual(got, profile) {
				t.Fatalf("trial %d %s: memo miss differs from Profile", trial, j)
			}
			cp.Split = Split{CI: 1, CJ: 1, CK: 1}
			if got := memo.Profile(&cp); !reflect.DeepEqual(got, Profile(&cp)) {
				t.Fatalf("trial %d %s: memo confuses splits", trial, j)
			}
			if got := memo.Profile(j); &got[0].Class[0] != &memo.Profile(j)[0].Class[0] || !reflect.DeepEqual(got, profile) {
				t.Fatalf("trial %d %s: memo hit differs from Profile", trial, j)
			}
			jobs++
			if len(want) == 2 {
				twoPhase++
			}
			if j.Out.Rows%ts != 0 || j.Out.Cols%ts != 0 {
				ragged++
			}
			if j.MaskLeaf != "" {
				masked++
			}
		}
		if len(memo.m) > 2*len(pl.Jobs) {
			t.Fatalf("trial %d: memo holds %d entries for %d jobs", trial, len(memo.m), len(pl.Jobs))
		}
	}
	if twoPhase < 20 || ragged < 50 || masked < 10 {
		t.Fatalf("weak coverage: %d jobs, %d two-phase, %d ragged, %d masked", jobs, twoPhase, ragged, masked)
	}
}
