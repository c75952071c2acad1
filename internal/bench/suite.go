package bench

import (
	"fmt"
	"io"
)

// Experiment names one runnable experiment.
type Experiment struct {
	ID  string
	Run func(s *Suite) (*Result, error)
}

// All lists every experiment in the reproduction, in order.
func All() []Experiment {
	return []Experiment{
		{"E01", (*Suite).E01MachineCatalog},
		{"E02", (*Suite).E02WorkloadSuite},
		{"E03", (*Suite).E03MatMulVsMR},
		{"E04", (*Suite).E04GNMFVsMR},
		{"E05", (*Suite).E05SplitSweep},
		{"E06", (*Suite).E06SlotSweep},
		{"E07", (*Suite).E07TaskModelAccuracy},
		{"E08", (*Suite).E08SimAccuracy},
		{"E09", (*Suite).E09Speedup},
		{"E10", (*Suite).E10CostDeadline},
		{"E11", (*Suite).E11MachineChoice},
		{"E12", (*Suite).E12OptimizerValue},
		{"E13", (*Suite).E13ReorderAblation},
		{"E14", (*Suite).E14FusionAblation},
		{"E15", (*Suite).E15OverlapAblation},
		{"E16", (*Suite).E16MaskedMultiply},
		{"E17", (*Suite).E17SpotBidding},
		{"E18", (*Suite).E18Locality},
		{"E19", (*Suite).E19Speculation},
		{"E20", (*Suite).E20FaultRecovery},
		{"E21", (*Suite).E21Distribution},
		{"E22", (*Suite).E22TileCache},
	}
}

// RunOneFormat executes a single experiment, rendering its table in the
// requested format ("text", "markdown" or "csv").
func (s *Suite) RunOneFormat(id string, w io.Writer, format string) (*Result, error) {
	for _, e := range All() {
		if e.ID == id {
			res, err := e.Run(s)
			if err != nil {
				return nil, fmt.Errorf("bench: %s: %w", e.ID, err)
			}
			if err := res.Table.RenderAs(w, format); err != nil {
				return nil, err
			}
			return res, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q", id)
}
