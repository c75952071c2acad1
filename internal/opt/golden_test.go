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
		{42, "a6d62fd51d3e9d6187c8ed40ccd5adfc05aaea42f799cd8ba453c98ea8105d9a",
			"d60af45a7c211c83da52d58114daf4d0fb0eaa769cc0a59c7d87a6b141688dde"},
		{7, "83122676235e1dc999a307a55e4a4410a347543b9daea721cc093b1913f5c7df",
			"fb80149be3fac8c178211fd944e85dcf732998df6ea3548631b2f623e4b49522"},
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
