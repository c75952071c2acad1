package opt_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"cumulon/internal/opt"
	"cumulon/internal/plan"
	"cumulon/internal/workloads"
)

// TestColdSearchGolden pins the cold search the root package's
// BenchmarkSearchGNMFCold runs — paper-scale 1-iteration GNMF, tile 2048, a
// 120 s deadline over the full catalog — to the sha256 of its exported
// search trace and of its candidate list, at two seeds. Calibration feeds
// every candidate's estimate, so any change to what the benchmark suite
// observes (placement, scheduling, noise) moves both.
func TestColdSearchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("two cold searches")
	}
	for _, g := range []struct {
		seed              int64
		trace, candidates string
	}{
		{42, "c941b0e52f6681f2859c1939636e90e14817653b127ea6cf0148c121ab944dfd",
			"abb3470751d94bb3017bd5119c190a524d1e6ef25d25e6b02e1a1259e2ba7fca"},
		{7, "1ee9c8bcbe5dc0927e2e3b697bc626ff5c987fd9b7f51bbdd46c2c0dd3d2d593",
			"8d37ac919d2435a3f4d46b2a96e3b8ffed7c61066502f0cd7c02d3f8eecf2ca4"},
	} {
		w := workloads.GNMF(100000, 50000, 10, 1, 0.01)
		st := opt.NewSearchTrace()
		res, err := opt.New(g.seed).MinCostForDeadline(opt.Request{
			Program:     w.Prog,
			PlanCfg:     plan.Config{TileSize: 2048, Densities: w.Densities},
			DeadlineSec: 120,
			Search:      st,
		})
		if err != nil {
			t.Fatal(err)
		}
		var trace bytes.Buffer
		if err := st.WriteJSON(&trace); err != nil {
			t.Fatal(err)
		}
		cands, err := json.Marshal(res.Candidates)
		if err != nil {
			t.Fatal(err)
		}
		sum := func(b []byte) string { h := sha256.Sum256(b); return hex.EncodeToString(h[:]) }
		if got := sum(trace.Bytes()); got != g.trace {
			t.Errorf("seed %d: search trace sha256 %s, want %s", g.seed, got, g.trace)
		}
		if got := sum(cands); got != g.candidates {
			t.Errorf("seed %d: candidates sha256 %s, want %s", g.seed, got, g.candidates)
		}
	}
}
