package plan

import (
	"testing"

	"cumulon/internal/lang"
)

func TestTaskProfilesShapes(t *testing.T) {
	pl := compileSrc(t, `
input A 33 29
input B 29 17
C = A * B
output C
`, Config{TileSize: 4})
	j := pl.Jobs[0]
	j.Split = Split{CI: 3, CJ: 2, CK: 2}
	phases := TaskProfiles(j)
	if len(phases) != 2 {
		t.Fatalf("ck=2 should produce 2 phases, got %d", len(phases))
	}
	if len(phases[0]) != 3*2*2 || len(phases[1]) != 3*2 {
		t.Fatalf("phase task counts: %d, %d", len(phases[0]), len(phases[1]))
	}
	for pi, phase := range phases {
		for ti, w := range phase {
			if w.Flops <= 0 || w.ReadBytes <= 0 || w.WriteBytes <= 0 {
				t.Fatalf("phase %d task %d has non-positive work: %+v", pi, ti, w)
			}
		}
	}
}

// profileTotal sums a job's Profile over every task.
func profileTotal(j *Job) TaskWork {
	var tot TaskWork
	for _, ph := range Profile(j) {
		for _, c := range ph.Class {
			tot.Flops += ph.Work[c].Flops
			tot.ReadBytes += ph.Work[c].ReadBytes
			tot.WriteBytes += ph.Work[c].WriteBytes
		}
	}
	return tot
}

// mulJob32 is a 32x32 by 32x32 multiply in 4x4 tiles.
func mulJob32(t *testing.T) *Job {
	return compileSrc(t, "input A 32 32\ninput B 32 32\nC = A * B\noutput C", Config{TileSize: 4}).Jobs[0]
}

// TestEstimateJobMulPhases: a k-split adds a phase, the partials' writes
// and the aggregation's reads, at no fewer flops.
func TestEstimateJobMulPhases(t *testing.T) {
	j := mulJob32(t)
	j.Split = Split{CI: 2, CJ: 2, CK: 1}
	if n := len(Profile(j)); n != 1 {
		t.Fatalf("ck=1 has %d phases, want 1", n)
	}
	flat := profileTotal(j)
	j.Split = Split{CI: 2, CJ: 2, CK: 2}
	if n := len(Profile(j)); n != 2 {
		t.Fatalf("ck=2 has %d phases, want 2", n)
	}
	ksplit := profileTotal(j)
	if ksplit.ReadBytes+ksplit.WriteBytes <= flat.ReadBytes+flat.WriteBytes || ksplit.Flops < flat.Flops {
		t.Fatalf("k-split %+v vs unsplit %+v: want more I/O and no fewer flops", ksplit, flat)
	}
}

// TestEstimateJobReplicatedReads: a wider split re-reads the operands
// (four column chunks read L four times).
func TestEstimateJobReplicatedReads(t *testing.T) {
	j := mulJob32(t)
	j.Split = Split{CI: 1, CJ: 1, CK: 1}
	one := profileTotal(j)
	j.Split = Split{CI: 4, CJ: 4, CK: 1}
	if wide := profileTotal(j); wide.ReadBytes <= one.ReadBytes {
		t.Fatalf("a wider split reads %d bytes, the serial one %d", wide.ReadBytes, one.ReadBytes)
	}
}

func TestPlanAccessors(t *testing.T) {
	pl := compileSrc(t, `
input A 8 8
B = (A * A) .* A
output B
`, Config{})
	if pl.String() == "" || pl.Jobs[0].String() == "" {
		t.Fatal("String broken")
	}
}

func TestSplitValidateErrors(t *testing.T) {
	job := func(src string) *Job {
		return compileSrc(t, src, Config{TileSize: 4, Densities: map[string]float64{"V": 0.25}}).Jobs[0]
	}
	mapJob := job("input A 16 16\nB = A .* A\noutput B")
	mulJob := job("input A 16 16\ninput B 16 16\nC = A * B\noutput C")
	masked := job("input V 16 16 sparse\ninput W 16 16\nR = mask(V, W * W)\noutput R")
	for i, c := range []struct {
		s Split
		j *Job
	}{
		{Split{0, 1, 1}, mapJob},
		{Split{5, 1, 1}, mapJob},  // exceeds grid
		{Split{1, 1, 2}, mapJob},  // map with ck
		{Split{1, 1, 99}, mulJob}, // exceeds k tiles
		{Split{1, 1, 2}, masked},  // masked with ck
	} {
		if err := c.s.Validate(c.j); err == nil {
			t.Errorf("case %d: split %v should be invalid for %s", i, c.s, c.j)
		}
	}
	if err := (Split{2, 2, 2}).Validate(mulJob); err != nil {
		t.Fatal(err)
	}
	if err := (Split{2, 2, 1}).Validate(masked); err != nil {
		t.Fatal(err)
	}
}

func TestChainFlopsThroughMask(t *testing.T) {
	env := map[string]lang.Shape{
		"V": {Rows: 8, Cols: 8, Sparse: true},
		"W": {Rows: 8, Cols: 2},
		"H": {Rows: 2, Cols: 8},
	}
	e, err := lang.ParseExpr("mask(V, W * H)")
	if err != nil {
		t.Fatal(err)
	}
	flops, err := ChainFlops(e, env)
	if err != nil {
		t.Fatal(err)
	}
	if flops != 2*8*2*8 {
		t.Fatalf("mask chain flops: %d", flops)
	}
}

// TestMatricesCountsEveryNumber: Matrices is one past the largest number a
// run binds — a name's, or a partial's of the phases — at every k-split of
// a product, beside a masked product and a map that never split their K.
func TestMatricesCountsEveryNumber(t *testing.T) {
	pl := compileSrc(t, `
input V 32 24 sparse
input W 32 16
input H 16 24
X = W * H
R = mask(V, W * H)
Y = X + R
output Y
`, Config{TileSize: 4, Densities: map[string]float64{"V": 0.25}})
	var mul *Job
	for _, j := range pl.Jobs {
		if j.Kind == MulKind && j.MaskLeaf == "" {
			mul = j
		}
	}
	if mul == nil || mul.KTiles() < 3 || len(pl.Jobs) < 3 {
		t.Fatalf("want a product with a K to cut, a masked product and a map: %s", pl)
	}
	for ck := 1; ck <= mul.KTiles()+2; ck++ {
		mul.Split.CK = ck
		want := len(pl.Names)
		for _, j := range pl.Jobs {
			for _, pm := range j.Phases()[0].Partials {
				want = max(want, int(pm.Num)+1)
			}
		}
		if got := pl.Matrices(); got != want {
			t.Fatalf("CK %d: Matrices() = %d, want %d", ck, got, want)
		}
	}
}
