// Package bench regenerates the paper's evaluation: every experiment
// (E01..E12, see DESIGN.md for the mapping onto the paper's tables and
// figures) is a method on Suite that produces a printable table plus a
// set of named check values that the benchmark tests assert qualitative
// claims against (who wins, by what factor, where the optima lie).
//
// All engine runs are virtual-mode (placement, scheduling and timing are
// exact; tile payloads are elided) so experiments run at paper scale;
// correctness of the same code paths is established by the materialized
// integration tests in the exec and core packages.
package bench

import (
	"fmt"
	"io"
	"strings"

	"cumulon/internal/chaos"
	"cumulon/internal/cloud"
	"cumulon/internal/core"
	"cumulon/internal/exec"
	"cumulon/internal/lang"
	"cumulon/internal/obs"
	"cumulon/internal/opt"
	"cumulon/internal/plan"
)

// Table is one experiment's rendered output.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "  note: %s\n", t.Notes)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Result is one experiment outcome: the table plus named quantitative
// checks for assertions.
type Result struct {
	Table  *Table
	Checks map[string]float64
}

func newResult(id, title string, header ...string) *Result {
	return &Result{
		Table:  &Table{ID: id, Title: title, Header: header},
		Checks: map[string]float64{},
	}
}

// Suite owns the shared state of an experiment run: the session (with its
// cached calibrated models) and the seed.
type Suite struct {
	Sess *core.Session
	Seed int64
	// Workers bounds the tasks materialized runs compute at once (see
	// exec.Config.Workers: 0 = the host's compute budget, 1 = sequential).
	// Virtual-mode experiments are unaffected.
	Workers int
	// Recorder, when set, receives the observability spans of every
	// engine run the suite performs (the bench binary points it at an
	// obs.Trace for its -trace/-metrics flags). nil disables recording.
	Recorder obs.Recorder
	// Search, when set, receives candidate-level telemetry from every
	// optimizer search the suite performs (the bench binary's -searchtrace
	// flag). nil disables recording.
	Search *opt.SearchTrace
	// Chaos, when set, injects the fault schedule into every engine run
	// the suite performs (the bench binary's -chaos flag). Experiments
	// that construct their own fault scenarios (E20) ignore it.
	Chaos *chaos.Schedule
}

// NewSuite constructs a suite; all randomness derives from seed.
func NewSuite(seed int64) *Suite {
	return &Suite{Sess: core.NewSession(seed), Seed: seed}
}

// cluster builds a named-type cluster or panics (experiment parameters
// are static; a bad name is a programming error).
func (s *Suite) cluster(typeName string, nodes, slots int) cloud.Cluster {
	mt, err := cloud.TypeByName(typeName)
	if err != nil {
		panic(err)
	}
	cl, err := cloud.NewCluster(mt, nodes, slots)
	if err != nil {
		panic(err)
	}
	return cl
}

// runVirtual compiles and executes a program in virtual mode on the given
// cluster, with AutoSplit physical parameters, returning the run metrics.
func (s *Suite) runVirtual(prog *lang.Program, cfg plan.Config, cl cloud.Cluster) (*exec.RunMetrics, error) {
	return s.runVirtualRec(prog, cfg, cl, s.Recorder)
}

// runVirtualRec is runVirtual recording into a caller-supplied recorder
// (E08 uses a fresh obs.Trace per run for the predicted-vs-actual diff).
func (s *Suite) runVirtualRec(prog *lang.Program, cfg plan.Config, cl cloud.Cluster, rec obs.Recorder) (*exec.RunMetrics, error) {
	res, err := s.Sess.Run(prog, cfg, core.ExecOptions{Cluster: cl, Workers: s.Workers, Recorder: rec, Chaos: s.Chaos})
	if err != nil {
		return nil, err
	}
	return res.Metrics, nil
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func d0(v int) string     { return fmt.Sprintf("%d", v) }

func gb(bytes int64) string { return fmt.Sprintf("%.1f", float64(bytes)/1e9) }

// E01MachineCatalog reproduces the machine-type table (paper's Table 1
// analogue): the provisioning alternatives and their prices.
func (s *Suite) E01MachineCatalog() (*Result, error) {
	r := newResult("E01", "Machine type catalog (EC2 2013-era analogue)",
		"type", "ECU", "cores", "mem GB", "disk MB/s", "net MB/s", "$/hour")
	for _, m := range cloud.Catalog() {
		r.Table.AddRow(m.Name, f1(m.ECU), d0(m.Cores), f1(m.MemoryGB),
			f1(m.DiskMBps), f1(m.NetMBps), f3(m.PricePerHour))
	}
	r.Checks["types"] = float64(len(cloud.Catalog()))
	return r, nil
}

// E02WorkloadSuite reproduces the workload summary (paper's Table 2
// analogue): the statistical programs, their logical work and the plans
// Cumulon compiles for them.
func (s *Suite) E02WorkloadSuite() (*Result, error) {
	r := newResult("E02", "Workload suite: programs, logical work, compiled plans",
		"workload", "inputs GB", "jobs", "mul jobs", "Gflops")
	for _, w := range paperWorkloads() {
		pl, err := plan.Compile(w.Prog, plan.Config{TileSize: tileSize, Densities: w.Densities})
		if err != nil {
			return nil, err
		}
		pl.AutoSplit(32)
		var inBytes int64
		for _, in := range pl.Inputs {
			inBytes += in.EstBytes()
		}
		muls := 0
		var flops int64
		for _, j := range pl.Jobs {
			if j.Kind == plan.MulKind {
				muls++
			}
			for _, ph := range plan.Profile(j) {
				for _, c := range ph.Class {
					flops += ph.Work[c].Flops
				}
			}
		}
		r.Table.AddRow(w.Name, gb(inBytes), d0(len(pl.Jobs)), d0(muls),
			fmt.Sprintf("%.0f", float64(flops)/1e9))
		r.Checks["jobs:"+w.Name] = float64(len(pl.Jobs))
	}
	return r, nil
}
