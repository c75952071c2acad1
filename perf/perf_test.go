package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func smokeOptions(t *testing.T, workload string, trace bool) options {
	t.Helper()
	return options{workload: workload, seed: 42, seconds: 0.4, trace: trace, sc: smokeScale, traceDir: t.TempDir()}
}

func mustSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkMetrics asserts res carries exactly the named metrics, each with the
// unit BENCHMARK.json gives it and a finite value.
func checkMetrics(t *testing.T, where string, res *result, want []specMetric) {
	t.Helper()
	for _, sm := range want {
		if !nameRE.MatchString(sm.Name) {
			t.Errorf("%s: metric name %q is not [A-Za-z0-9_.-]+", where, sm.Name)
		}
		m, ok := res.Metrics[sm.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", where, sm.Name)
			continue
		}
		if m.Unit != sm.Unit || m.Unit == "" {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", where, sm.Name, m.Unit, sm.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s = %v", where, sm.Name, m.Value)
		}
	}
}

// lastLine runs report into a file and decodes the driver's result line.
func lastLine(t *testing.T, o options, led *ledger) (line struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "report")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := report(f, o, mustSpec(t), led); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	return line
}

func sameNames(t *testing.T, where string, got map[string]struct {
	Value float64
	Unit  string
}, want []specMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: result line has %d metrics, BENCHMARK.json lists %d", where, len(got), len(want))
	}
	for _, sm := range want {
		if _, ok := got[sm.Name]; !ok {
			t.Errorf("%s: result line lacks %s", where, sm.Name)
		}
	}
}

// TestSmokeAll runs all four workloads untraced at smoke scale: every
// workload and end-to-end metric of BENCHMARK.json appears with its unit,
// every oracle passes, and a result file diffs against itself as all same.
func TestSmokeAll(t *testing.T) {
	spec := mustSpec(t)
	o := smokeOptions(t, "all", false)
	led, err := measure(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloadNames))
	}
	for _, w := range spec.Workloads {
		res := led.Workloads[w.Name]
		if res == nil {
			t.Errorf("workload %s not run", w.Name)
			continue
		}
		if res.Failed != 0 || res.Metrics[mFailures].Value != 0 {
			t.Errorf("%s: %d of %d ops failed: %v", w.Name, res.Failed, res.Attempted, res.Failures)
		}
		checkMetrics(t, w.Name, res, spec.EndToEnd)
		for _, sm := range spec.EndToEnd {
			if res.Metrics[sm.Name].Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.Name, sm.Name)
			}
		}
	}

	o.out = filepath.Join(t.TempDir(), "run.json")
	f, err := os.CreateTemp(t.TempDir(), "report")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := report(f, o, spec, led); err != nil {
		t.Fatal(err)
	}
	var table bytes.Buffer
	if err := diffFiles(&table, spec, o.out, o.out); err != nil {
		t.Fatalf("self-diff: %v", err)
	}
	rows := strings.Split(strings.TrimSpace(table.String()), "\n")[1:]
	if want := len(workloadNames) * (len(spec.EndToEnd) + 1); len(rows) != want {
		t.Errorf("self-diff has %d rows, want %d", len(rows), want)
	}
	for _, row := range rows {
		if !strings.HasSuffix(row, "same") {
			t.Errorf("self-diff row is not same: %s", row)
		}
	}
}

// TestSmokeTraced runs the traced run of every workload: each emits every
// per-layer metric of BENCHMARK.json, the result line carries exactly those,
// children cover the root spans, the span file parses, and the exact counts
// repeat from run to run.
func TestSmokeTraced(t *testing.T) {
	spec := mustSpec(t)
	counts := map[string]float64{}
	for _, name := range workloadNames {
		o := smokeOptions(t, name, true)
		led, err := measure(o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res := led.Workloads[name]
		if res.Failed != 0 {
			t.Errorf("%s: %d ops failed: %v", name, res.Failed, res.Failures)
		}
		checkMetrics(t, name, res, spec.PerLayer)
		line := lastLine(t, o, led)
		sameNames(t, name, line.Metrics, spec.PerLayer)
		if !line.Correct || line.Attempted < 1 {
			t.Errorf("%s: result line says correct=%v attempted=%d", name, line.Correct, line.Attempted)
		}
		if res.Layers == nil || res.Layers.ChildCoverage < 0.9 {
			t.Errorf("%s: children cover %.2f of the root spans, want >= 0.9", name, res.Layers.ChildCoverage)
		}
		data, err := os.ReadFile(filepath.Join(o.traceDir, "trace-"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(data, &tf); err != nil || len(tf.Spans) == 0 {
			t.Errorf("%s: span file: %v, %d spans", name, err, len(tf.Spans))
		}
		// exec.tasks follows the traced workload, so it is compared between
		// the two runs that take it from dense_matmul.
		for _, c := range []string{"plan.jobs", "plan.tasks", "opt.candidates", "opt.model_cache_misses", "exec.tasks"} {
			if c == "exec.tasks" && (name == "dense_matmul" || name == "gnmf_sparse") {
				continue
			}
			v := res.Metrics[c].Value
			if prev, seen := counts[c]; seen && prev != v {
				t.Errorf("%s: count %s = %v, an earlier run had %v", name, c, v, prev)
			}
			counts[c] = v
		}
	}
}

// TestSingleWorkloadResultLine checks the untraced result line: exactly the
// end-to-end metrics of BENCHMARK.json, with attempted and failed.
func TestSingleWorkloadResultLine(t *testing.T) {
	spec := mustSpec(t)
	o := smokeOptions(t, "dense_matmul", false)
	led, err := measure(o)
	if err != nil {
		t.Fatal(err)
	}
	line := lastLine(t, o, led)
	sameNames(t, "dense_matmul", line.Metrics, spec.EndToEnd)
	if !line.Correct || line.Failed != 0 || line.Attempted < smokeScale.minOps {
		t.Errorf("result line: %+v", line)
	}
}

// corrupting flips one output digest of one op on its way to verify.
type corrupting struct {
	*runWorkload
	badOp int
}

func (c corrupting) verify(i int, result any) error {
	res := result.(runResult)
	if i == c.badOp {
		res.digests["C"] = strings.Repeat("0", 64)
	}
	return c.runWorkload.verify(i, res)
}

// TestCorruptOutputCountsAsFailed corrupts one op's output: the harness
// counts that op as failed and keeps it out of every latency sample.
func TestCorruptOutputCountsAsFailed(t *testing.T) {
	w := newDenseWorkload(smokeScale, 7)
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	defer w.teardown()
	acc := &samples{}
	for acc.attempted < 4 {
		w.next = runBatchWindow(corrupting{w, 2}, 0, nil, w.next, acc)
	}
	if acc.failed != 1 || len(acc.ops) != acc.attempted-1 {
		t.Fatalf("attempted %d, failed %d, latency samples %d: want exactly op 2 failed and unsampled", acc.attempted, acc.failed, len(acc.ops))
	}
	if !strings.Contains(acc.failures[0], "op 2") || !strings.Contains(acc.failures[0], "digest") {
		t.Errorf("failure message %q does not name op 2's digest", acc.failures[0])
	}
}

func TestOraclesRejectWrongAnswers(t *testing.T) {
	const n = 8
	a, b, c := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
	for i := range a {
		a[i], b[i] = float64(i%7)+0.5, float64(i%5)-1.25
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				c[i*n+j] += a[i*n+k] * b[k*n+j]
			}
		}
	}
	if err := freivalds(a, b, c, n, 1); err != nil {
		t.Errorf("correct product rejected: %v", err)
	}
	c[n+3] += 1e-6
	if err := freivalds(a, b, c, n, 1); err == nil {
		t.Error("perturbed product accepted")
	}
	if err := relClose([]float64{1, math.NaN()}, []float64{1, 2}, 1e-9); err == nil {
		t.Error("NaN accepted")
	}
	// sha256 of eight zero bytes: digest is defined on the raw payload.
	if got := digest([]float64{0}); got != "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc" {
		t.Errorf("digest([0]) = %s", got)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Op: 0, Name: "root", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Op: 0, Name: "a", StartNs: 10, EndNs: 50},
		{ID: 3, Parent: 1, Op: 0, Name: "b", StartNs: 40, EndNs: 70}, // overlaps a by 10
		{ID: 4, Parent: 2, Op: 0, Name: "a1", StartNs: 20, EndNs: 30},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 40, 2: 30, 3: 30, 4: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if cov := summarizeSpans(spans).ChildCoverage; math.Abs(cov-0.6) > 1e-12 {
		t.Errorf("child coverage %v, want 0.6", cov)
	}
}

func TestVerdict(t *testing.T) {
	q := func(v, q1, q3 float64) metric { return metric{Value: v, Q1: q1, Q3: q3, N: 20} }
	for _, tc := range []struct {
		old, cur metric
		better   string
		want     string
	}{
		{q(100, 95, 105), q(104, 99, 109), "lower", "same"},
		{q(100, 99, 101), q(120, 119, 121), "lower", "worse"},
		{q(100, 99, 101), q(80, 79, 81), "lower", "better"},
		{q(100, 80, 125), q(120, 95, 140), "lower", "unresolved"},
		{q(100, 99, 101), q(120, 119, 121), "higher", "better"},
		{q(100, 99, 101), q(80, 79, 81), "higher", "worse"},
		{single(100, "ms"), single(120, "ms"), "lower", "worse"},
	} {
		if _, got := verdict(tc.old, tc.cur, tc.better, 0.10); got != tc.want {
			t.Errorf("verdict(%v -> %v, %s) = %s, want %s", tc.old.Value, tc.cur.Value, tc.better, got, tc.want)
		}
	}
}

// TestDiffFailsOnWhatTheNewFileLost: a ledger that lost a workload or a
// metric must not pass as unchanged.
func TestDiffFailsOnWhatTheNewFileLost(t *testing.T) {
	spec := mustSpec(t)
	full := func() *result {
		r := &result{Attempted: 10, Metrics: map[string]metric{mFailures: single(0, "ratio")}}
		for _, sm := range spec.EndToEnd {
			r.Metrics[sm.Name] = single(1, sm.Unit)
		}
		return r
	}
	write := func(name string, led *ledger) string {
		data, err := json.Marshal(led)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := write("old.json", &ledger{Workloads: map[string]*result{"dense_matmul": full(), "serve_mixed": full()}})
	if err := diffFiles(io.Discard, spec, old, old); err != nil {
		t.Fatalf("self-diff: %v", err)
	}
	lostWorkload := write("a.json", &ledger{Workloads: map[string]*result{"dense_matmul": full()}})
	if err := diffFiles(io.Discard, spec, old, lostWorkload); err == nil || !strings.Contains(err.Error(), "serve_mixed") {
		t.Errorf("lost workload: diff returned %v", err)
	}
	thin := full()
	delete(thin.Metrics, mP90)
	lostMetric := write("b.json", &ledger{Workloads: map[string]*result{"dense_matmul": thin, "serve_mixed": full()}})
	if err := diffFiles(io.Discard, spec, old, lostMetric); err == nil || !strings.Contains(err.Error(), mP90) {
		t.Errorf("lost metric: diff returned %v", err)
	}
}

// TestTempDirsAreRemoved checks that serve_mixed leaves nothing behind, even
// when set-up fails after the state directory exists.
func TestTempDirsAreRemoved(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	w := newServeWorkload(smokeScale, 3)
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	acc := &samples{}
	w.measure(100*time.Millisecond, nil, acc)
	w.teardown()
	if acc.failed != 0 || acc.ok() == 0 {
		t.Errorf("%d ok, %d failed: %v", acc.ok(), acc.failed, acc.failures)
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("%d entries left in the temp dir, first %s", len(left), left[0].Name())
	}
}
