package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the harness reads: the window
// length, and each metric's direction and regression bound.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var led ledger
	if err := json.Unmarshal(data, &led); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &led, nil
}

// verdict compares one metric of two runs. worse is how much worse the new
// median is, as a share of the old one (negative when it is better).
//
//   - within the bound either way: same;
//   - beyond the bound, and the two runs' interquartile ranges are disjoint
//     (or the metric carries no quartiles): better or worse;
//   - beyond the bound but the ranges overlap: unresolved — the spread
//     between samples is wider than the gap, so one run each cannot tell.
func verdict(old, cur metric, better string, bound float64) (worse float64, v string) {
	worse = (cur.Value - old.Value) / old.Value
	if better == "higher" {
		worse = -worse
	}
	if worse <= bound && worse >= -bound {
		return worse, "same"
	}
	overlap := old.Q3 > 0 && cur.Q3 > 0 && old.Q1 <= cur.Q3 && cur.Q1 <= old.Q3
	switch {
	case overlap:
		return worse, "unresolved"
	case worse > 0:
		return worse, "worse"
	}
	return worse, "better"
}

// diffFiles prints one row per (workload, end-to-end metric) and fails on
// any worse verdict, any rise in fail_ratio, and any workload or metric of the
// old file that the new one lost.
func diffFiles(w io.Writer, spec *benchSpec, oldPath, newPath string) error {
	oldL, err := readLedger(oldPath)
	if err != nil {
		return err
	}
	newL, err := readLedger(newPath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told (q1..q3)\tnew (q1..q3)\tnew/old\tbound\tverdict")
	bad := 0
	for _, name := range sortedKeys(oldL.Workloads) {
		o, n := oldL.Workloads[name], newL.Workloads[name]
		if n == nil {
			return fmt.Errorf("%s lacks workload %s", newPath, name)
		}
		for _, sm := range spec.EndToEnd {
			om, ok1 := o.Metrics[sm.Name]
			nm, ok2 := n.Metrics[sm.Name]
			if !ok1 || !ok2 {
				return fmt.Errorf("%s: metric %s is not in both files", name, sm.Name)
			}
			_, v := verdict(om, nm, sm.Better, sm.Bound)
			if v == "worse" {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.3f of %.5g %s\t%.0f%%\t%s\n",
				name, sm.Name, cell(om), cell(nm), nm.Value/om.Value, om.Value, om.Unit, 100*sm.Bound, v)
		}
		of, nf := o.Metrics[mFailures].Value, n.Metrics[mFailures].Value
		v := "same"
		if nf > of {
			v = "worse"
			bad++
		} else if nf < of {
			v = "better"
		}
		fmt.Fprintf(tw, "%s\t%s\t%d/%d\t%d/%d\t\t0\t%s\n", name, mFailures, o.Failed, o.Attempted, n.Failed, n.Attempted, v)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("regression: %d metric(s) worse", bad)
	}
	return nil
}

func cell(m metric) string {
	if m.Q3 == 0 {
		return fmt.Sprintf("%.5g", m.Value)
	}
	return fmt.Sprintf("%.5g (%.5g..%.5g)", m.Value, m.Q1, m.Q3)
}
