package obs

import (
	"math"
	"testing"
)

func recordedRun(progSec float64, jobSecs map[int]float64) *Trace {
	tr := NewTrace()
	prog := tr.Start(KindProgram, "program", NoSpan, 0)
	clock := 0.0
	for id := 0; id < 8; id++ {
		sec, ok := jobSecs[id]
		if !ok {
			continue
		}
		j := tr.Start(KindJob, "job", prog, clock)
		tr.SetAttrs(j, Attrs{JobID: id})
		clock += sec
		tr.End(j, clock)
	}
	tr.End(prog, progSec)
	return tr
}

// TestDiffTraces aligns predicted and actual job spans by job id and
// checks the relative-error arithmetic, including one-sided jobs.
func TestDiffTraces(t *testing.T) {
	actual := recordedRun(100, map[int]float64{0: 40, 1: 50, 3: 10})
	predicted := recordedRun(90, map[int]float64{0: 44, 1: 40, 2: 6})

	d, err := DiffTraces(actual, predicted)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.ProgramRelErr-(-0.1)) > 1e-9 {
		t.Fatalf("program rel err = %g, want -0.1", d.ProgramRelErr)
	}
	if len(d.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(d.Rows))
	}
	byID := map[int]DiffRow{}
	for _, r := range d.Rows {
		byID[r.JobID] = r
	}
	if e := byID[0].RelErr; math.Abs(e-0.1) > 1e-9 {
		t.Fatalf("job 0 rel err = %g, want +0.1", e)
	}
	if e := byID[1].RelErr; math.Abs(e-(-0.2)) > 1e-9 {
		t.Fatalf("job 1 rel err = %g, want -0.2", e)
	}
	if !byID[2].MissingActual || !math.IsNaN(byID[2].RelErr) {
		t.Fatalf("job 2 should be missing on the actual side: %+v", byID[2])
	}
	if !byID[3].MissingPredicted {
		t.Fatalf("job 3 should be missing on the predicted side: %+v", byID[3])
	}
	if math.Abs(d.WorstJobRelErr-0.2) > 1e-9 {
		t.Fatalf("worst job rel err = %g, want 0.2", d.WorstJobRelErr)
	}
}

func TestDiffTracesRequiresPrograms(t *testing.T) {
	if _, err := DiffTraces(NewTrace(), recordedRun(1, nil)); err == nil {
		t.Fatal("want error for actual trace without program span")
	}
	if _, err := DiffTraces(recordedRun(1, nil), NewTrace()); err == nil {
		t.Fatal("want error for predicted trace without program span")
	}
}
