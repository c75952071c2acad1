package exec

import (
	"testing"

	"cumulon/internal/chaos"
	"cumulon/internal/plan"
)

// TestConfigHashReadsOldCheckpoints pins the checkpoint identity to the
// strings recorded from commit b07a610, while Config still had the
// evaluator switch that "interp=false" was formatted from: a -state-dir
// written by that binary must keep resuming. A new Config field that shapes
// the timeline is appended to the format; nothing already in it may move.
func TestConfigHashReadsOldCheckpoints(t *testing.T) {
	for _, c := range []struct {
		cfg      Config
		tileSize int
		want     string
	}{
		{
			cfg: Config{
				Cluster:         testCluster(t, 4, 2),
				Materialize:     true,
				Seed:            7,
				NoiseFactor:     0.08,
				RackSize:        2,
				CacheFraction:   0.4,
				Speculation:     true,
				CheckpointEvery: 2,
				Chaos: &chaos.Schedule{
					Seed:          5,
					Crashes:       []chaos.NodeCrash{{Node: 1, At: 40}},
					TaskFaultProb: 0.12,
					KillProgramAt: 90,
				},
			},
			tileSize: 8,
			want:     "fc910e9e360d577312fa22728f7d9d7702ac3a21b8d17a330b9de0be787d9410",
		},
		{
			cfg:      Config{Cluster: testCluster(t, 3, 2), Seed: 1, CheckpointEvery: 1},
			tileSize: 4,
			want:     "598c17fbe1076e3adfcb365e727ea02885f0f73031dc996a23b10abcd1e4c658",
		},
	} {
		e, err := New(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.configHash(&plan.Plan{TileSize: c.tileSize}); got != c.want {
			t.Errorf("configHash = %s, want %s (recorded at b07a610)", got, c.want)
		}
	}
}
