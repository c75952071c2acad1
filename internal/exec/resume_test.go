// The harness lives in an external test package: it drives iterative
// programs from package workloads, which (transitively, via core)
// imports exec itself.
package exec_test

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"cumulon/internal/chaos"
	"cumulon/internal/ckpt"
	"cumulon/internal/cloud"
	"cumulon/internal/compute"
	"cumulon/internal/core"
	"cumulon/internal/exec"
	"cumulon/internal/linalg"
	"cumulon/internal/obs"
	"cumulon/internal/plan"
	"cumulon/internal/workloads"
)

// faultCluster builds the standard 4x2 fault-test cluster.
func faultCluster(t *testing.T, nodes, slots int) cloud.Cluster {
	t.Helper()
	mt, err := cloud.TypeByName("m1.large")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cloud.NewCluster(mt, nodes, slots)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// runIterative executes a workload materialized on the standard fault
// test cluster (racked, cached, noisy, speculating) with checkpointing
// at every iteration boundary. Run errors are returned, not fataled, so
// callers can assert on ProgramKilled.
func runIterative(t *testing.T, wl workloads.Workload, be compute.Backend, sched *chaos.Schedule, cs ckpt.Store, resume bool, rec obs.Recorder) (map[string]*linalg.Dense, *exec.RunMetrics, error) {
	t.Helper()
	e, err := exec.New(exec.Config{
		Cluster:         faultCluster(t, 4, 2),
		Materialize:     true,
		Seed:            7,
		NoiseFactor:     0.08,
		RackSize:        2,
		CacheFraction:   0.4,
		Speculation:     true,
		Backend:         be,
		Chaos:           sched,
		Recorder:        rec,
		CheckpointEvery: 1,
		CheckpointStore: cs,
		Resume:          resume,
	})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.Compile(wl.Prog, plan.Config{TileSize: 8, Densities: wl.Densities})
	if err != nil {
		t.Fatal(err)
	}
	pl.AutoSplit(8)
	data := core.RandomInputs(wl.Prog, plan.Config{Densities: wl.Densities}, 5)
	for _, in := range pl.Inputs {
		if err := e.LoadDense(in, data[in.Name]); err != nil {
			t.Fatal(err)
		}
	}
	m, err := e.Run(pl)
	if err != nil {
		return nil, nil, err
	}
	outs := map[string]*linalg.Dense{}
	for name, meta := range pl.Outputs {
		d, err := e.FetchOutput(meta)
		if err != nil {
			t.Fatal(err)
		}
		outs[name] = d
	}
	return outs, m, nil
}

// releaseNear returns the job release time closest to target, excluding
// the first job's release at 0 (killing there would be a no-op: the
// kill-program check only fires for positive times).
func releaseNear(m *exec.RunMetrics, target float64) float64 {
	best := 0.0
	for _, j := range m.Jobs {
		if j.StartSec <= 0 {
			continue
		}
		if best == 0 || math.Abs(j.StartSec-target) < math.Abs(best-target) {
			best = j.StartSec
		}
	}
	return best
}

// canonSpans renders spans in an ID-free canonical form — kind, name,
// exact times, attributes, and the ancestor name path — keeping only
// spans at or after the resume clock (plus the program span), sorted.
func canonSpans(spans []obs.Span, clock float64) []string {
	byID := map[obs.SpanID]obs.Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	path := func(s obs.Span) string {
		p := ""
		for cur := s; cur.Parent != obs.NoSpan; {
			par, ok := byID[cur.Parent]
			if !ok {
				break
			}
			p = par.Name + "/" + p
			cur = par
		}
		return p
	}
	var out []string
	for _, s := range spans {
		if s.Kind != obs.KindProgram && s.Start < clock {
			continue
		}
		out = append(out, fmt.Sprintf("%d|%s|%v|%v|%+v|%s", s.Kind, s.Name, s.Start, s.End, s.Attrs, path(s)))
	}
	sort.Strings(out)
	return out
}

// canonEvents renders events at or after the resume clock with their
// parent span's name, sorted.
func canonEvents(tr *obs.Trace, clock float64) []string {
	byID := map[obs.SpanID]obs.Span{}
	for _, s := range tr.Spans() {
		byID[s.ID] = s
	}
	var out []string
	for _, ev := range tr.Events() {
		if ev.Time < clock {
			continue
		}
		out = append(out, fmt.Sprintf("%s|%s|%v", byID[ev.Parent].Name, ev.Name, ev.Time))
	}
	sort.Strings(out)
	return out
}

// resumeClock returns the virtual time the resumed trace restarts at:
// the earliest non-program span start (0 when the run started from
// scratch, i.e. no checkpoint existed).
func resumeClock(spans []obs.Span) float64 {
	clock := math.Inf(1)
	for _, s := range spans {
		if s.Kind != obs.KindProgram && s.Start < clock {
			clock = s.Start
		}
	}
	if math.IsInf(clock, 1) {
		return 0
	}
	return clock
}

// TestCrashResumeDifferential is the crash-resume bit-identity
// contract, on both compute backends: each iterative workload is killed
// at roughly 20%, 50% and 80% of its fault-free makespan, resumed from
// the durable checkpoint store, and the resumed run must finish with
// bitwise-identical outputs, the identical total time, and a
// byte-identical post-resume trace (spans and events) compared to the
// uninterrupted oracle. Kills before the first checkpoint boundary
// resume from scratch and must then reproduce the oracle in full.
func TestCrashResumeDifferential(t *testing.T) {
	cases := []workloads.Workload{
		workloads.GNMF(26, 22, 4, 3, 0.25),
		workloads.GNMFKL(20, 16, 3, 2, 0.3),
		workloads.RSVD(24, 18, 4, 2),
		workloads.PageRank(24, 3, 0.2, 0.85),
	}
	backends := []struct {
		name string
		mk   func() compute.Backend
	}{
		{"seq", compute.NewSequential},
		{"pool", func() compute.Backend { return compute.NewPool(8) }},
	}
	for _, wl := range cases {
		for _, be := range backends {
			t.Run(wl.Name+"/"+be.name, func(t *testing.T) {
				oracleTr := obs.NewTrace()
				oOuts, oM, err := runIterative(t, wl, be.mk(), nil, nil, false, oracleTr)
				if err != nil {
					t.Fatal(err)
				}
				if oM.Checkpoints == 0 {
					t.Fatal("oracle run wrote no checkpoints; workload has no usable boundary")
				}
				for _, frac := range []float64{0.2, 0.5, 0.8} {
					frac := frac
					t.Run(fmt.Sprintf("kill%.0f%%", frac*100), func(t *testing.T) {
						killAt := releaseNear(oM, frac*oM.TotalSeconds)
						if killAt <= 0 {
							t.Fatal("no positive job release to kill at")
						}
						cs := ckpt.NewMemStore()
						_, _, err := runIterative(t, wl, be.mk(),
							&chaos.Schedule{KillProgramAt: killAt}, cs, false, nil)
						var pk *exec.ProgramKilled
						if !errors.As(err, &pk) {
							t.Fatalf("killed run: want ProgramKilled, got %v", err)
						}
						resTr := obs.NewTrace()
						rOuts, rM, err := runIterative(t, wl, be.mk(), nil, cs, true, resTr)
						if err != nil {
							t.Fatalf("resumed run: %v", err)
						}
						if frac >= 0.75 && rM.ResumedFromStmt == 0 {
							t.Errorf("late kill at %.1fs resumed from scratch; expected a checkpoint to cover it", killAt)
						}
						if rM.TotalSeconds != oM.TotalSeconds {
							t.Errorf("total time diverges: oracle %v, resumed %v", oM.TotalSeconds, rM.TotalSeconds)
						}
						for name, od := range oOuts {
							rd := rOuts[name]
							if rd == nil {
								t.Fatalf("resumed run missing output %s", name)
							}
							if at := firstBitDiff(od, rd); at >= 0 {
								t.Errorf("output %s not bitwise identical after resume: element %d is %x vs %x",
									name, at, math.Float64bits(od.Data[at]), math.Float64bits(rd.Data[at]))
							}
						}
						clock := resumeClock(resTr.Spans())
						wantSpans := canonSpans(oracleTr.Spans(), clock)
						gotSpans := canonSpans(resTr.Spans(), clock)
						if !reflect.DeepEqual(wantSpans, gotSpans) {
							t.Errorf("post-resume spans diverge from oracle: %d vs %d spans after clock %v\n%s",
								len(wantSpans), len(gotSpans), clock, diffLines(wantSpans, gotSpans))
						}
						wantEv := canonEvents(oracleTr, clock)
						gotEv := canonEvents(resTr, clock)
						if !reflect.DeepEqual(wantEv, gotEv) {
							t.Errorf("post-resume events diverge from oracle: %d vs %d after clock %v\n%s",
								len(wantEv), len(gotEv), clock, diffLines(wantEv, gotEv))
						}
					})
				}
			})
		}
	}
}

// firstBitDiff compares two matrices at the float64 bit-pattern level
// — the strictest possible identity, under which equal-bits NaNs match
// (reflect.DeepEqual would report NaN != NaN) — and returns the first
// differing element index, or -1 when identical. A shape mismatch
// reports element 0.
func firstBitDiff(a, b *linalg.Dense) int {
	if a.Rows != b.Rows || a.Cols != b.Cols || len(a.Data) != len(b.Data) {
		return 0
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return i
		}
	}
	return -1
}

// diffLines reports the first few one-sided lines between two sorted
// string sets, for failure messages.
func diffLines(want, got []string) string {
	w := map[string]bool{}
	for _, s := range want {
		w[s] = true
	}
	g := map[string]bool{}
	for _, s := range got {
		g[s] = true
	}
	var out string
	n := 0
	for _, s := range want {
		if !g[s] && n < 3 {
			out += "  oracle only: " + s + "\n"
			n++
		}
	}
	n = 0
	for _, s := range got {
		if !w[s] && n < 3 {
			out += "  resumed only: " + s + "\n"
			n++
		}
	}
	return out
}

// TestKillInsideCheckpointSpanLosesIt pins kill-program's dead-from-t
// meaning: a kill inside the job a checkpoint saves, or inside the
// checkpoint write itself, loses that checkpoint, so the resumed run
// starts from the boundary before it and still finishes bit-identically
// to an uninterrupted run.
func TestKillInsideCheckpointSpanLosesIt(t *testing.T) {
	wl := workloads.GNMF(26, 22, 4, 3, 0.25)
	tr := obs.NewTrace()
	oOuts, oM, err := runIterative(t, wl, compute.NewSequential(), nil, nil, false, tr)
	if err != nil {
		t.Fatal(err)
	}
	var cks []obs.Span // checkpoint writes carry JobID -stmt
	for _, s := range tr.Spans() {
		if s.Kind == obs.KindJob && s.Attrs.JobID < 0 {
			cks = append(cks, s)
		}
	}
	sort.Slice(cks, func(a, b int) bool { return cks[a].Start < cks[b].Start })
	if len(cks) < 2 {
		t.Fatalf("want two checkpoints, got %d", len(cks))
	}
	prev, last := cks[len(cks)-2], cks[len(cks)-1]
	var saved *exec.JobRecord // the job whose output the last write saves
	for i := range oM.Jobs {
		if oM.Jobs[i].EndSec == last.Start {
			saved = &oM.Jobs[i]
		}
	}
	if saved == nil {
		t.Fatal("no job ends where the last checkpoint write starts")
	}
	for _, c := range []struct {
		name   string
		killAt float64
	}{
		{"in-job", (saved.StartSec + saved.EndSec) / 2},
		{"in-write", (last.Start + last.End) / 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			cs := ckpt.NewMemStore()
			_, _, err := runIterative(t, wl, compute.NewSequential(),
				&chaos.Schedule{KillProgramAt: c.killAt}, cs, false, nil)
			var pk *exec.ProgramKilled
			if !errors.As(err, &pk) {
				t.Fatalf("killed run: want ProgramKilled, got %v", err)
			}
			rOuts, rM, err := runIterative(t, wl, compute.NewSequential(), nil, cs, true, nil)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if want := -prev.Attrs.JobID; rM.ResumedFromStmt != want {
				t.Errorf("kill at %.2fs resumed from stmt %d, want the earlier boundary %d",
					c.killAt, rM.ResumedFromStmt, want)
			}
			if rM.TotalSeconds != oM.TotalSeconds {
				t.Errorf("total time diverges: oracle %v, resumed %v", oM.TotalSeconds, rM.TotalSeconds)
			}
			for name, od := range oOuts {
				if at := firstBitDiff(od, rOuts[name]); at >= 0 {
					t.Errorf("output %s not bitwise identical after resume at element %d", name, at)
				}
			}
		})
	}
}

// TestCheckpointKillPastEndCompletes covers the degenerate kill time: a
// schedule that kills after the program ends never fires, so the run
// completes normally.
func TestCheckpointKillPastEndCompletes(t *testing.T) {
	wl := workloads.PageRank(24, 2, 0.2, 0.85)
	outs, m, err := runIterative(t, wl, compute.NewSequential(), &chaos.Schedule{KillProgramAt: 1e12}, nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if outs["x"] == nil || m.TotalSeconds <= 0 {
		t.Fatal("run did not complete")
	}
}

// TestCheckpointRejectsOverlap pins the engine guard: checkpoints are
// global barriers, incompatible with the overlap scheduler.
func TestCheckpointRejectsOverlap(t *testing.T) {
	e, err := exec.New(exec.Config{
		Cluster:         faultCluster(t, 2, 2),
		Seed:            1,
		OverlapJobs:     true,
		CheckpointEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	wl := workloads.PageRank(16, 2, 0.2, 0.85)
	pl, err := plan.Compile(wl.Prog, plan.Config{TileSize: 8, Densities: wl.Densities})
	if err != nil {
		t.Fatal(err)
	}
	pl.AutoSplit(4)
	for _, in := range pl.Inputs {
		if err := e.LoadVirtual(in); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Run(pl); err == nil {
		t.Fatal("overlap + checkpoint must be rejected")
	}
}
