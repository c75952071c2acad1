package exec

import (
	"encoding/csv"
	"strings"
	"testing"
)

// TestTimelineCSVEmptyRun: a run with no tasks still emits a well-formed
// header-only CSV (the plotting scripts rely on the header being present).
func TestTimelineCSVEmptyRun(t *testing.T) {
	var m RunMetrics
	var sb strings.Builder
	if err := m.TimelineCSV(&sb); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("empty run emitted %d CSV records, want header only", len(recs))
	}
	header := []string{"job", "phase", "task", "node", "slot", "start_s", "end_s", "flops",
		"local_bytes", "rack_bytes", "remote_bytes", "cache_bytes", "write_bytes", "retries", "recovery_s"}
	if len(recs[0]) != len(header) {
		t.Fatalf("header has %d columns, want %d", len(recs[0]), len(header))
	}
	for i, h := range header {
		if recs[0][i] != h {
			t.Fatalf("header column %d = %q, want %q", i, recs[0][i], h)
		}
	}
}

// TestTimelineCSVRowContent checks one fully-specified task row end to end,
// including the end_s = start_s + seconds derivation.
func TestTimelineCSVRowContent(t *testing.T) {
	var m RunMetrics
	m.addTask(TaskRecord{
		JobID: 2, Phase: 1, Index: 5, Node: 3, Slot: 7,
		Flops: 1234, StartSec: 1.5, Seconds: 2.25,
		LocalReadBytes: 11, RackReadBytes: 22, RemoteReadBytes: 33,
		CacheReadBytes: 44, WriteBytes: 55, Retries: 1, RecoverySec: 0.5,
	})
	var sb strings.Builder
	if err := m.TimelineCSV(&sb); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d CSV records, want header + 1 row", len(recs))
	}
	want := []string{"2", "1", "5", "3", "7", "1.500", "3.750", "1234",
		"11", "22", "33", "44", "55", "1", "0.500"}
	for i, w := range want {
		if recs[1][i] != w {
			t.Fatalf("row column %d = %q, want %q", i, recs[1][i], w)
		}
	}
}

// TestUtilizationEdgeCases: the degenerate inputs (empty run, nonpositive
// slot count) report zero rather than dividing by zero, and over-busy
// accounting clamps at 1.
func TestUtilizationEdgeCases(t *testing.T) {
	var empty RunMetrics
	if u := empty.Utilization(8); u != 0 {
		t.Fatalf("empty run utilization = %g, want 0", u)
	}
	m := RunMetrics{TotalSeconds: 10}
	m.addTask(TaskRecord{Seconds: 5})
	if u := m.Utilization(0); u != 0 {
		t.Fatalf("utilization with 0 slots = %g, want 0", u)
	}
	if u := m.Utilization(-3); u != 0 {
		t.Fatalf("utilization with negative slots = %g, want 0", u)
	}
	if u := m.Utilization(2); u != 0.25 {
		t.Fatalf("utilization = %g, want 0.25", u)
	}
	over := RunMetrics{TotalSeconds: 1}
	over.addTask(TaskRecord{Seconds: 100})
	if u := over.Utilization(1); u != 1 {
		t.Fatalf("over-busy utilization = %g, want clamp to 1", u)
	}
}

// TestAddTaskAggregates: addTask keeps the run-level totals in sync with
// the per-task records.
func TestAddTaskAggregates(t *testing.T) {
	var m RunMetrics
	m.addTask(TaskRecord{Flops: 10, LocalReadBytes: 1, RackReadBytes: 2, RemoteReadBytes: 4, CacheReadBytes: 8, WriteBytes: 16, Retries: 2, RecoverySec: 1.5})
	m.addTask(TaskRecord{Flops: 5, LocalReadBytes: 100, WriteBytes: 200, Retries: 1, RecoverySec: 0.5})
	if m.TotalFlops != 15 || m.TotalReadBytes != 107 || m.TotalWriteBytes != 216 || m.TotalCacheBytes != 8 {
		t.Fatalf("aggregates flops=%d read=%d write=%d cache=%d",
			m.TotalFlops, m.TotalReadBytes, m.TotalWriteBytes, m.TotalCacheBytes)
	}
	if m.TotalRetries != 3 || m.RecoverySeconds != 2 {
		t.Fatalf("recovery aggregates retries=%d recovery=%g", m.TotalRetries, m.RecoverySeconds)
	}
	if len(m.Tasks) != 2 {
		t.Fatalf("len(Tasks) = %d", len(m.Tasks))
	}
}

// Utilization returns the fraction of slot-time spent running tasks:
// total task seconds divided by (makespan x totalSlots). Low utilization
// signals poor splits (too few tasks) or job-barrier slack. Only tests
// measure it.
func (m *RunMetrics) Utilization(totalSlots int) float64 {
	if m.TotalSeconds <= 0 || totalSlots <= 0 {
		return 0
	}
	var busy float64
	for _, t := range m.Tasks {
		busy += t.Seconds
	}
	u := busy / (m.TotalSeconds * float64(totalSlots))
	if u > 1 {
		u = 1
	}
	return u
}
