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

// The load-bearing property: the planner's per-task work profiles must
// aggregate to exactly what EstimateJob reports for flops, and the same
// totals the virtual engine accounts (checked cross-package in sim); here
// we verify internal consistency across splits, including fringe grids.
func TestTaskProfilesAggregateToEstimates(t *testing.T) {
	srcs := []string{
		"input A 33 29\ninput B 29 17\nC = A * B\noutput C",
		"input A 30 30\nB = abs(A .* A) + A\noutput B",
		"input H 5 30\ninput W 40 5\ninput V 40 30\nH = H .* (W' * V)\noutput H",
		"input V 30 30 sparse\ninput H 30 6\nX = V * H\noutput X",
	}
	for _, src := range srcs {
		pl := compileSrc(t, src, Config{TileSize: 4, Densities: map[string]float64{"V": 0.25}})
		for _, split := range []Split{{1, 1, 1}, {2, 3, 1}, {3, 2, 2}} {
			for _, j := range pl.Jobs {
				s := split
				if j.Kind != MulKind || j.MaskLeaf != "" {
					s.CK = 1
				}
				if s.CI > j.ITiles() {
					s.CI = j.ITiles()
				}
				if s.CJ > j.JTiles() {
					s.CJ = j.JTiles()
				}
				if s.CK > j.KTiles() {
					s.CK = j.KTiles()
				}
				j.Split = s
				var flops, write int64
				for _, phase := range TaskProfiles(j) {
					for _, w := range phase {
						flops += w.Flops
						write += w.WriteBytes
					}
				}
				est := EstimateJob(j)
				// Flop totals agree within integer-division slack of the
				// estimator (which averages per task).
				if diff := flops - est.TotalFlops; diff < -int64(est.Phases[0].Tasks) || diff > int64(est.Phases[0].Tasks)*8 {
					t.Fatalf("%s split %v: profile flops %d vs estimate %d", j, s, flops, est.TotalFlops)
				}
				if write <= 0 {
					t.Fatalf("%s split %v: no write bytes", j, s)
				}
			}
		}
	}
}

func TestPlanAccessors(t *testing.T) {
	pl := compileSrc(t, `
input A 8 8
B = (A * A) .* A
output B
`, Config{})
	if pl.JobByID(0) == nil || pl.JobByID(99) != nil {
		t.Fatal("JobByID broken")
	}
	if pl.String() == "" || pl.Jobs[0].String() == "" {
		t.Fatal("String broken")
	}
	// LeafRef.Shape covers both orientations.
	j := pl.Jobs[0]
	for _, ref := range j.Leaves {
		r, c := ref.Shape()
		if r <= 0 || c <= 0 {
			t.Fatal("leaf shape broken")
		}
	}
}

func TestSplitValidateErrors(t *testing.T) {
	cases := []struct {
		s    Split
		kind JobKind
	}{
		{Split{0, 1, 1}, MapKind},
		{Split{5, 1, 1}, MapKind},  // exceeds grid
		{Split{1, 1, 2}, MapKind},  // map with ck
		{Split{1, 1, 99}, MulKind}, // exceeds k tiles
	}
	for i, c := range cases {
		if err := c.s.Validate(4, 4, 4, c.kind); err == nil {
			t.Errorf("case %d: split %v should be invalid", i, c.s)
		}
	}
	if err := (Split{2, 2, 2}).Validate(4, 4, 4, MulKind); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateMapJob(t *testing.T) {
	pl := compileSrc(t, `
input A 16 16
input B 16 16
C = A .* B + A
output C
`, Config{TileSize: 4})
	j := pl.Jobs[0]
	j.Split = Split{CI: 2, CJ: 2, CK: 1}
	st := EstimateJob(j)
	if len(st.Phases) != 1 || st.Phases[0].Tasks != 4 {
		t.Fatalf("map estimate phases: %+v", st)
	}
	// Two element-wise ops over 256 elements.
	if st.TotalFlops != 2*16*16 {
		t.Fatalf("map flops: %d", st.TotalFlops)
	}
	if st.TotalReadBytes <= 0 || st.TotalWriteBytes <= 0 {
		t.Fatalf("map io: %+v", st)
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
