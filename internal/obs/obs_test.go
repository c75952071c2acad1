package obs

import (
	"testing"
)

// TestNopRecorderZeroAllocs is the hot-path guard: the exact call
// sequence an engine makes per task — the Enabled gate plus the span
// primitives — must not allocate at all on the no-op recorder, so a run
// with observability disabled performs byte-for-byte the allocations of
// an uninstrumented engine.
func TestNopRecorderZeroAllocs(t *testing.T) {
	rec := Nop()
	deps := []int{1, 2}
	enabled := false
	n := testing.AllocsPerRun(1000, func() {
		if rec.Enabled() {
			enabled = true
		}
		id := rec.Start(KindTask, "task", NoSpan, 1.0)
		rec.SetAttrs(id, Attrs{
			JobID: 3, Phase: 1, Index: 7, Node: 2, Slot: 5, Deps: deps,
			Flops: 1 << 20, LocalReadBytes: 4096, WriteBytes: 512,
			QueueSec: 0.5, Breakdown: Breakdown{CatCompute: 1.5},
		})
		rec.Event(id, "gemm", 1.5)
		rec.End(id, 2.0)
	})
	if enabled {
		t.Fatal("Nop().Enabled() returned true")
	}
	if n != 0 {
		t.Fatalf("no-op recorder allocated %.1f times per task, want 0", n)
	}
}

// BenchmarkNopRecorderTaskPath reports the per-task overhead of disabled
// observability (expected: ~ns, 0 allocs/op).
func BenchmarkNopRecorderTaskPath(b *testing.B) {
	rec := Nop()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := rec.Start(KindTask, "task", NoSpan, 0)
		rec.SetAttrs(id, Attrs{Flops: int64(i)})
		rec.End(id, 1)
	}
}

func TestOrNop(t *testing.T) {
	if OrNop(nil).Enabled() {
		t.Fatal("OrNop(nil) must be disabled")
	}
	tr := NewTrace()
	if OrNop(tr) != Recorder(tr) {
		t.Fatal("OrNop must pass a real recorder through")
	}
}

// TestTraceRecords covers the buffered recorder: ids, parents, re-End,
// attrs replacement, events, and robustness against bogus ids.
func TestTraceRecords(t *testing.T) {
	tr := NewTrace()
	if !tr.Enabled() {
		t.Fatal("Trace must be enabled")
	}
	prog := tr.Start(KindProgram, "program", NoSpan, 0)
	job := tr.Start(KindJob, "job 0", prog, 0)
	tr.SetAttrs(job, Attrs{JobID: 4, Deps: []int{1}})
	tr.End(job, 10)
	tr.End(job, 12) // speculation-style re-end
	tr.Event(job, "retry", 3)
	tr.End(prog, 12)

	// Out-of-range ids are ignored, not panics.
	tr.End(SpanID(99), 1)
	tr.SetAttrs(NoSpan, Attrs{})

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if j := spans[job-1]; j.Parent != prog || j.End != 12 || j.Attrs.JobID != 4 {
		t.Fatalf("job span %+v", j)
	}
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Name != "retry" || evs[0].Parent != job {
		t.Fatalf("events %+v", evs)
	}
	p, err := tr.Program()
	if err != nil {
		t.Fatal(err)
	}
	if p.Seconds() != 12 {
		t.Fatalf("program seconds %g, want 12", p.Seconds())
	}
}

func TestProgramRequiresExactlyOne(t *testing.T) {
	tr := NewTrace()
	if _, err := tr.Program(); err == nil {
		t.Fatal("empty trace must not yield a program span")
	}
	tr.Start(KindProgram, "a", NoSpan, 0)
	tr.Start(KindProgram, "b", NoSpan, 0)
	if _, err := tr.Program(); err == nil {
		t.Fatal("two program spans must be an error")
	}
}

func TestBreakdownHelpers(t *testing.T) {
	b := Breakdown{CatCompute: 2, CatWrite: 1}
	if b.Total() != 3 {
		t.Fatalf("Total = %g", b.Total())
	}
	s := b.Scale(2)
	if s[CatCompute] != 4 || s[CatWrite] != 2 || b[CatCompute] != 2 {
		t.Fatalf("Scale mutated receiver or wrong result: %v %v", s, b)
	}
	a := b.Add(Breakdown{CatCompute: 1, CatQueue: 5})
	if a[CatCompute] != 3 || a[CatQueue] != 5 {
		t.Fatalf("Add = %v", a)
	}
	for c := Category(0); c < NumCategories; c++ {
		if c.String() == "?" {
			t.Fatalf("category %d lacks a name", c)
		}
	}
	for _, k := range []Kind{KindProgram, KindJob, KindPhase, KindTask} {
		if k.String() == "?" {
			t.Fatalf("kind %d lacks a name", k)
		}
	}
}
