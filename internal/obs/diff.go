package obs

import (
	"fmt"
	"math"
	"sort"
)

// DiffRow compares one job between an actual (exec) and a predicted
// (sim) trace.
type DiffRow struct {
	JobID        int
	Name         string
	ActualSec    float64
	PredictedSec float64
	// RelErr is (predicted-actual)/actual; NaN when a side is missing.
	RelErr float64
	// MissingActual / MissingPredicted flag one-sided jobs.
	MissingActual, MissingPredicted bool
}

// Diff is a structural predicted-vs-actual comparison: per-job relative
// errors plus the program-level error, upgrading scalar end-time
// comparisons to span-by-span ones.
type Diff struct {
	Rows                            []DiffRow
	ProgramActual, ProgramPredicted float64
	ProgramRelErr                   float64
	// WorstJobRelErr is the largest absolute per-job relative error over
	// jobs present on both sides.
	WorstJobRelErr float64
}

// DiffTraces aligns the job spans of a predicted trace against those of
// an actual trace by job ID and reports relative errors of the span
// durations. Each trace must hold exactly one program span.
func DiffTraces(actual, predicted *Trace) (*Diff, error) {
	actProg, err := actual.Program()
	if err != nil {
		return nil, fmt.Errorf("actual trace: %w", err)
	}
	predProg, err := predicted.Program()
	if err != nil {
		return nil, fmt.Errorf("predicted trace: %w", err)
	}
	d := &Diff{
		ProgramActual:    actProg.Seconds(),
		ProgramPredicted: predProg.Seconds(),
		ProgramRelErr:    relErr(predProg.Seconds(), actProg.Seconds()),
	}
	type side struct {
		name string
		sec  float64
		have bool
	}
	act := map[int]side{}
	pred := map[int]side{}
	var ids []int
	note := func(m map[int]side, s Span) {
		if _, seen := m[s.Attrs.JobID]; !seen {
			if _, other := act[s.Attrs.JobID]; !other {
				if _, other2 := pred[s.Attrs.JobID]; !other2 {
					ids = append(ids, s.Attrs.JobID)
				}
			}
			m[s.Attrs.JobID] = side{name: s.Name, sec: s.Seconds(), have: true}
		}
	}
	for _, s := range actual.SpansOf(KindJob) {
		note(act, s)
	}
	for _, s := range predicted.SpansOf(KindJob) {
		note(pred, s)
	}
	sort.Ints(ids)
	for _, id := range ids {
		a, p := act[id], pred[id]
		row := DiffRow{
			JobID: id, Name: a.name,
			ActualSec: a.sec, PredictedSec: p.sec,
			MissingActual: !a.have, MissingPredicted: !p.have,
		}
		if row.Name == "" {
			row.Name = p.name
		}
		if a.have && p.have {
			row.RelErr = relErr(p.sec, a.sec)
			if e := math.Abs(row.RelErr); e > d.WorstJobRelErr {
				d.WorstJobRelErr = e
			}
		} else {
			row.RelErr = math.NaN()
		}
		d.Rows = append(d.Rows, row)
	}
	return d, nil
}

func relErr(pred, actual float64) float64 {
	if actual == 0 {
		if pred == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (pred - actual) / actual
}
