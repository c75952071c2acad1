package plan_test

import (
	"testing"

	"cumulon/internal/core"
	"cumulon/internal/lang"
	"cumulon/internal/plan"
	"cumulon/internal/workloads"
)

func mulJobs(pl *plan.Plan) int {
	n := 0
	for _, j := range pl.Jobs {
		if j.Kind == plan.MulKind {
			n++
		}
	}
	return n
}

// TestCSEGNMFKLRemovesProductPerIteration pins the acceptance criterion:
// the KL-divergence GNMF update evaluates V⊘(WH) in both factor updates
// with identical operand versions, and plan.CSE provably removes one matrix
// product per iteration from the lowered plan.
func TestCSEGNMFKLRemovesProductPerIteration(t *testing.T) {
	const iters = 3
	w := workloads.GNMFKL(8, 6, 4, iters, 0.5)
	with, err := plan.Compile(w.Prog, plan.Config{TileSize: 4, Densities: w.Densities})
	if err != nil {
		t.Fatal(err)
	}
	without, err := plan.Compile(w.Prog, plan.Config{TileSize: 4, Densities: w.Densities, DisableCSE: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mulJobs(without)-mulJobs(with), iters; got != want {
		t.Fatalf("plan.CSE removed %d mul jobs, want %d (with %d, without %d)",
			got, want, mulJobs(with), mulJobs(without))
	}
	r := with.Rewrites
	if r == nil || r.Chains() != iters {
		t.Fatalf("rewrite report: %v", r)
	}
	if r.FlopsSaved() <= 0 {
		t.Fatalf("flops saved: %d", r.FlopsSaved())
	}
	if without.Rewrites != nil {
		t.Fatalf("DisableCSE still reported rewrites: %v", without.Rewrites)
	}
}

// TestCSEHoistsLoopInvariant: a product whose operands are never
// reassigned is computed once, before the loop body's first use, instead
// of once per unrolled iteration.
func TestCSEHoistsLoopInvariant(t *testing.T) {
	const iters = 4
	prog := &lang.Program{
		Name: "invariant",
		Inputs: []lang.Input{
			{Name: "X", Rows: 8, Cols: 8},
			{Name: "S", Rows: 8, Cols: 8},
			{Name: "w", Rows: 8, Cols: 8},
		},
		Outputs: []string{"w"},
	}
	body, err := lang.ParseExpr("w .* ((X' * X) .* S)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < iters; i++ {
		prog.Stmts = append(prog.Stmts, lang.Assign{Name: "w", Expr: body})
	}
	with, err := plan.Compile(prog, plan.Config{TileSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	without, err := plan.Compile(prog, plan.Config{TileSize: 4, DisableCSE: true})
	if err != nil {
		t.Fatal(err)
	}
	// Without plan.CSE every iteration recomputes X'X; with it, one hoisted job.
	if got, want := mulJobs(without), iters; got != want {
		t.Fatalf("baseline mul jobs: %d, want %d", got, want)
	}
	if got := mulJobs(with); got != 1 {
		t.Fatalf("hoisted mul jobs: %d, want 1\n%s", got, with)
	}
	r := with.Rewrites
	if r == nil || r.Chains() != 1 || r.Entries[0].Occurrences != iters {
		t.Fatalf("rewrite report: %+v", r)
	}
}

// TestCSEPreservesSemantics holds the rewritten program to the reference
// interpreter: identical outputs, bit for bit, and the input program is
// left unmutated (the optimizer recompiles the same pointer repeatedly).
func TestCSEPreservesSemantics(t *testing.T) {
	w := workloads.GNMFKL(6, 5, 3, 2, 0.6)
	before := w.Prog.String()
	rewritten, rep, err := plan.CSE(w.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || rewritten == w.Prog {
		t.Fatalf("expected a fresh rewritten program with a report, got %v", rep)
	}
	if w.Prog.String() != before {
		t.Fatal("plan.CSE mutated its input program")
	}
	in := core.RandomInputs(w.Prog, plan.Config{Densities: w.Densities}, 7)
	want, err := lang.Interpret(w.Prog, in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := lang.Interpret(rewritten, in)
	if err != nil {
		t.Fatal(err)
	}
	for name, wd := range want {
		gd, ok := got[name]
		if !ok {
			t.Fatalf("output %s missing from rewritten program", name)
		}
		if wd.MaxAbsDiff(gd) != 0 {
			t.Fatalf("output %s differs after CSE (max abs diff %g)", name, wd.MaxAbsDiff(gd))
		}
	}
}

// TestCSEStockWorkloadsUntouched: the Gaussian GNMF, RSVD and regression
// programs have no repeated product chains (every product involves a
// freshly updated factor), so plan.CSE must be an exact no-op on them — their
// plans, and therefore their golden traces, are unchanged by the pass
// being default-on.
func TestCSEStockWorkloadsUntouched(t *testing.T) {
	progs := []*lang.Program{
		workloads.GNMF(8, 6, 4, 2, 0.5).Prog,
		workloads.RSVD(8, 6, 3, 2).Prog,
		workloads.Regression(8, 4, 2, 0.1).Prog,
	}
	for _, p := range progs {
		rewritten, rep, err := plan.CSE(p)
		if err != nil {
			t.Fatal(err)
		}
		if rep != nil {
			t.Fatalf("%s: unexpected plan.CSE report %v", p.Name, rep)
		}
		if rewritten != p {
			t.Fatalf("%s: no-op plan.CSE should return the input program", p.Name)
		}
	}
}

// TestCSEMaskStatementsSkipped: masked multiplies require a literal
// product at the statement root; plan.CSE must neither replace nor hoist
// through them.
func TestCSEMaskStatementsSkipped(t *testing.T) {
	src := `
input P 8 8 sparse
input A 8 8
input B 8 8
M = mask(P, A * B)
N = mask(P, A * B)
output M
output N
`
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	rewritten, rep, err := plan.CSE(prog)
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil || rewritten != prog {
		t.Fatalf("mask statements must be skipped, got report %v", rep)
	}
	if _, err := plan.Compile(prog, plan.Config{TileSize: 4, Densities: map[string]float64{"P": 0.5}}); err != nil {
		t.Fatal(err)
	}
}
