// Command perf is the repository's wall-clock benchmark: four named
// workloads measured end to end from outside the packages, a separate traced
// run that yields per-layer numbers, and a differ for two result files.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

var workloadNames = []string{"search_gnmf", "dense_matmul", "gnmf_sparse", "serve_mixed"}

func newWorkload(name string, sc scale, seed int64) (workload, error) {
	switch name {
	case "search_gnmf":
		return newSearchWorkload(sc, seed), nil
	case "dense_matmul":
		return newDenseWorkload(sc, seed), nil
	case "gnmf_sparse":
		return newGNMFWorkload(sc, seed), nil
	case "serve_mixed":
		return newServeWorkload(sc, seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s, or all)", name, strings.Join(workloadNames, ", "))
}

// result is one workload's outcome in a run.
type result struct {
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Layers is the span digest of a traced run (absent otherwise).
	Layers *layerSummary `json:"layers,omitempty"`
}

// ledger is the file -out writes and -diff reads.
type ledger struct {
	Host      hostInfo           `json:"host"`
	Scale     string             `json:"scale"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Workloads map[string]*result `json:"workloads"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	traceDir string // where trace-<workload>.json goes: perf/out, a temp dir in the tests
	sc       scale
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	fs.Int64Var(&o.seed, "seed", 42, "seed for every generated input")
	fs.Float64Var(&o.seconds, "seconds", 0, "length of each workload's timed window (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 for the traced run: per-layer metrics and a span file in place of the end-to-end metrics")
	fs.StringVar(&o.out, "out", "", "write the results to this JSON file")
	smoke := fs.Bool("smoke", false, "tiny inputs and short windows, as the unit test runs them")
	diff := fs.Bool("diff", false, "compare two result files: -diff old.json new.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The harness runs from the repository root (run.sh changes to it).
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if *diff {
		if fs.NArg() != 2 {
			return errors.New("-diff wants two result files: old.json new.json")
		}
		return diffFiles(os.Stdout, spec, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	o.sc = defaultScale
	if *smoke {
		o.sc = smokeScale
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
		if *smoke {
			o.seconds = 0.4
		}
	}
	o.trace, o.traceDir = *trace != 0, "perf/out"
	led, err := measure(o)
	if err != nil {
		return err
	}
	return report(os.Stdout, o, spec, led)
}

// measure runs what the options name and returns the ledger.
func measure(o options) (*ledger, error) {
	led := &ledger{Host: readHost(), Scale: o.sc.name, Seed: o.seed, Seconds: o.seconds,
		Traced: o.trace, Workloads: map[string]*result{}}
	d := time.Duration(o.seconds * float64(time.Second))
	if o.workload == "all" && !o.trace {
		return led, interleavedRun(o, d, led)
	}
	names, run := []string{o.workload}, plainRun
	if o.workload == "all" {
		names = workloadNames
	}
	if o.trace {
		run = tracedRun
	}
	for _, name := range names {
		res, err := run(name, o, d)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		led.Workloads[name] = res
	}
	return led, nil
}

// setUp sets the workload up sc.setups times, tearing down in between, and
// returns each set-up's duration. The last set-up stays up. The yardstick
// runs a few times at every boundary, since set-ups are long and few.
func setUp(w workload, sc scale) ([]setupSample, error) {
	type span struct{ start, end time.Time }
	var spans []span
	readings := func() {
		for i := 0; i < 3; i++ {
			hostSlowdown()
		}
	}
	readings()
	for k := 0; k < sc.setups; k++ {
		if k > 0 {
			w.teardown()
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		spans = append(spans, span{t0, time.Now()})
		readings()
	}
	var out []setupSample
	for _, s := range spans {
		out = append(out, setupSample{sec: s.end.Sub(s.start).Seconds(), slow: slowdownOver(s.start, s.end)})
	}
	return out, nil
}

// finish turns samples into a result, measuring further windows first if
// the ones so far ended short of the scale's minOps.
func finish(w workload, d time.Duration, minOps int, setups []setupSample, acc *samples) (*result, error) {
	for extra := 0; acc.ok() < minOps && extra < maxExtraWindows; extra++ {
		w.measure(d, nil, acc)
	}
	m, err := endToEnd(setups, acc, minOps)
	if err != nil {
		return nil, err
	}
	return &result{Attempted: acc.attempted, Failed: acc.failed, Failures: acc.failures, Metrics: m}, nil
}

// plainRun is the untraced run of one workload.
func plainRun(name string, o options, d time.Duration) (*result, error) {
	w, err := newWorkload(name, o.sc, o.seed)
	if err != nil {
		return nil, err
	}
	defer w.teardown()
	setups, err := setUp(w, o.sc)
	if err != nil {
		return nil, err
	}
	acc := &samples{}
	w.measure(d, nil, acc)
	return finish(w, d, o.sc.minOps, setups, acc)
}

// interleavedRun is -workload all: the three one-client workloads run half
// their window before serve_mixed's single window and half after it, pooling
// the samples, so one noisy-neighbour burst cannot land on one workload alone.
// A workload is torn down after its pass and set up again for the next: left
// in the heap, its inputs would make the collector, which paces itself by the
// live heap, run less often for the others than it does in a run of their own.
func interleavedRun(o options, d time.Duration, led *ledger) error {
	type state struct {
		name   string
		w      workload
		setups []setupSample
		acc    *samples
	}
	var batch []*state
	for _, name := range workloadNames[:3] {
		w, err := newWorkload(name, o.sc, o.seed)
		if err != nil {
			return err
		}
		s := &state{name: name, w: w, acc: &samples{}}
		batch = append(batch, s)
		defer w.teardown()
		if s.setups, err = setUp(w, o.sc); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		w.measure(d/2, nil, s.acc)
		w.teardown()
	}
	res, err := plainRun("serve_mixed", o, d)
	if err != nil {
		return fmt.Errorf("serve_mixed: %w", err)
	}
	led.Workloads["serve_mixed"] = res
	for _, s := range batch {
		if err := s.w.setup(); err != nil {
			return fmt.Errorf("%s: set-up: %w", s.name, err)
		}
		s.w.measure(d/2, nil, s.acc)
		res, err := finish(s.w, d/2, o.sc.minOps, s.setups, s.acc)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		led.Workloads[s.name] = res
		s.w.teardown()
	}
	return nil
}

// report prints every metric by name with its unit, writes -out, and, for a
// single workload, ends with the one-line JSON result the benchmark driver
// reads: the metrics BENCHMARK.json lists for this kind of run, no others.
func report(w *os.File, o options, spec *benchSpec, led *ledger) error {
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d %s kernel %s\n", led.Host.NProc, led.Host.GOMAXPROCS, led.Host.GoVersion, led.Host.Kernel)
	fmt.Fprintf(w, "scale=%s seed=%d seconds=%g traced=%v\n", led.Scale, led.Seed, led.Seconds, led.Traced)
	names := sortedKeys(led.Workloads)
	correct := true
	for _, name := range names {
		res := led.Workloads[name]
		correct = correct && res.Failed == 0
		fmt.Fprintf(w, "\n%s: attempted=%d failed=%d\n", name, res.Attempted, res.Failed)
		for _, f := range res.Failures {
			fmt.Fprintf(w, "  FAILED %s\n", f)
		}
		for _, mn := range sortedKeys(res.Metrics) {
			m := res.Metrics[mn]
			fmt.Fprintf(w, "  %-34s %14.6g %-6s", mn, m.Value, m.Unit)
			if m.Raw != 0 {
				fmt.Fprintf(w, " raw=%.6g", m.Raw)
			}
			if m.Q3 != 0 {
				fmt.Fprintf(w, " q1=%.6g q3=%.6g", m.Q1, m.Q3)
			}
			if m.N > 0 {
				fmt.Fprintf(w, " n=%d", m.N)
			}
			fmt.Fprintln(w)
		}
	}
	if o.out != "" {
		data, err := json.MarshalIndent(led, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(names) != 1 {
		if !correct {
			return errors.New("some ops failed")
		}
		return nil
	}
	// The driver's contract: exactly these keys, value and unit per metric.
	res := led.Workloads[names[0]]
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]mv{}}
	listed := spec.EndToEnd
	if led.Traced {
		listed = spec.PerLayer
	}
	for _, sm := range listed {
		m, ok := res.Metrics[sm.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s of BENCHMARK.json was not measured", names[0], sm.Name)
		}
		line.Metrics[sm.Name] = mv{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%s\n", data)
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
