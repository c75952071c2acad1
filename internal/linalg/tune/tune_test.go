package tune

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"cumulon/internal/linalg"
)

// smokeOptions is the tiny sweep used across these tests: one small
// shape grid at a size far below the production default, so the whole
// sweep runs in milliseconds.
func smokeOptions() Options {
	return Options{
		Size:       96,
		Reps:       1,
		MaxWorkers: 2,
		Shapes: []linalg.BlockShape{
			{MC: 32, KC: 64, NC: 64},
			{MC: 16, KC: 32, NC: 32},
		},
		Seed: 7,
	}
}

func TestSweepProducesValidProfile(t *testing.T) {
	prof, err := Sweep(smokeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := prof.Validate(); err != nil {
		t.Fatal(err)
	}
	// Grid: 2 shapes × workers {1, 2} = 4 points, shape-major, workers
	// ascending.
	if len(prof.Points) != 4 {
		t.Fatalf("sweep produced %d points, want 4", len(prof.Points))
	}
	for i, pt := range prof.Points {
		if wantW := []int{1, 2, 1, 2}[i]; pt.Workers != wantW {
			t.Fatalf("point %d workers = %d, want %d (sweep order must be deterministic)", i, pt.Workers, wantW)
		}
		if !(pt.MFlops > 0) {
			t.Fatalf("point %d throughput %v", i, pt.MFlops)
		}
	}
	if prof.Baseline.Workers != 1 {
		t.Fatalf("baseline workers = %d, want 1", prof.Baseline.Workers)
	}
	if s := prof.Speedup(); s < 1 {
		t.Fatalf("speedup %v < 1 (must clamp)", s)
	}
}

func TestProfileJSONRoundTrip(t *testing.T) {
	prof, err := Sweep(smokeOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := prof.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("profile is not valid JSON:\n%s", buf.String())
	}
	// Field order is part of the determinism contract.
	txt := buf.String()
	for _, key := range []string{`"version"`, `"size"`, `"best"`, `"baseline"`, `"points"`} {
		if !strings.Contains(txt, key) {
			t.Fatalf("profile JSON missing %s:\n%s", key, txt)
		}
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := back.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != txt {
		t.Fatalf("profile does not round-trip byte-identically:\n--- first ---\n%s--- second ---\n%s", txt, again.String())
	}
}

func TestReadRejectsBadProfiles(t *testing.T) {
	for name, body := range map[string]string{
		"not json":    "not json",
		"bad version": `{"version": 99, "best": {"shape": {"mc": 64, "kc": 256, "nc": 512}, "workers": 1, "mflops": 100}, "points": [{}]}`,
		"bad shape":   `{"version": 1, "best": {"shape": {"mc": 3, "kc": 1, "nc": 2}, "workers": 1, "mflops": 100}, "points": [{}]}`,
		"no points":   `{"version": 1, "best": {"shape": {"mc": 64, "kc": 256, "nc": 512}, "workers": 1, "mflops": 100}}`,
		"no speed":    `{"version": 1, "best": {"shape": {"mc": 64, "kc": 256, "nc": 512}, "workers": 1, "mflops": 0}, "points": [{}]}`,
	} {
		if _, err := Read(strings.NewReader(body)); err == nil {
			t.Errorf("Read accepted profile with %s", name)
		}
	}
}

func TestApplyInstallsBestConfiguration(t *testing.T) {
	origShape := linalg.BlockDefaults()
	origPar := linalg.SetParallelism(0)
	defer func() {
		linalg.SetBlockDefaults(origShape)
		linalg.SetParallelism(origPar)
	}()

	prof, err := Sweep(smokeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := prof.Apply(); err != nil {
		t.Fatal(err)
	}
	if got := linalg.BlockDefaults(); got != prof.Best.Shape {
		t.Fatalf("Apply installed shape %+v, profile best is %+v", got, prof.Best.Shape)
	}
	if got := linalg.Parallelism(); got != prof.Best.Workers {
		t.Fatalf("Apply installed parallelism %d, profile best is %d", got, prof.Best.Workers)
	}
}

func TestSpeedupClamps(t *testing.T) {
	p := &Profile{Best: Point{MFlops: 50}, Baseline: Point{MFlops: 100}}
	if s := p.Speedup(); s != 1 {
		t.Fatalf("losing fan-out speedup = %v, want clamp to 1", s)
	}
	p = &Profile{Best: Point{MFlops: 300}, Baseline: Point{MFlops: 100}}
	if s := p.Speedup(); s != 3 {
		t.Fatalf("speedup = %v, want 3", s)
	}
	p = &Profile{Best: Point{MFlops: 300}}
	if s := p.Speedup(); s != 1 {
		t.Fatalf("missing baseline speedup = %v, want 1", s)
	}
}

// TestDefaultShapesLegalUnderEveryKernel: the default grid keeps all
// seven neighbors and puts every halved MC and NC on linalg.BlockQuantum's
// grid, which every micro-kernel's tile divides — so the grid is legal
// under the AVX2 and the scalar kernel alike (this test runs under both:
// the default build and CI's -tags purego step), also around an installed
// shape whose halves would fall off the grid.
func TestDefaultShapesLegalUnderEveryKernel(t *testing.T) {
	orig := linalg.BlockDefaults()
	defer linalg.SetBlockDefaults(orig)
	for _, d := range []linalg.BlockShape{orig, {MC: 24, KC: 1, NC: 40}} {
		if _, err := linalg.SetBlockDefaults(d); err != nil {
			t.Fatal(err)
		}
		shapes := DefaultShapes()
		if len(shapes) != 7 || shapes[0] != d {
			t.Fatalf("DefaultShapes around %+v = %+v, want the shape and its six neighbors", d, shapes)
		}
		for _, s := range shapes {
			if err := s.Validate(); err != nil {
				t.Errorf("default shape %+v illegal under kernel %s: %v", s, linalg.KernelName(), err)
			}
		}
		if mc, nc := shapes[1].MC, shapes[5].NC; mc%linalg.BlockQuantum != 0 || nc%linalg.BlockQuantum != 0 {
			t.Errorf("halved MC %d / NC %d are off the BlockQuantum grid", mc, nc)
		}
	}
}

// TestProfileRecordsKernel: a sweep stamps the micro-kernel it measured,
// and a profile written before the field existed still loads.
func TestProfileRecordsKernel(t *testing.T) {
	prof, err := Sweep(smokeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if prof.Kernel == "" || prof.Kernel != linalg.KernelName() {
		t.Fatalf("profile kernel %q, want %q", prof.Kernel, linalg.KernelName())
	}
	var buf bytes.Buffer
	if err := prof.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"kernel": "`+prof.Kernel+`"`) || !strings.Contains(buf.String(), `"version": 1`) {
		t.Fatalf("profile JSON lacks the kernel name or moved the version:\n%s", buf.String())
	}
	old := `{"version": 1, "best": {"shape": {"mc": 64, "kc": 256, "nc": 512}, "workers": 1, "mflops": 100}, "points": [{}]}`
	back, err := Read(strings.NewReader(old))
	if err != nil {
		t.Fatalf("profile without a kernel field rejected: %v", err)
	}
	if back.Kernel != "" {
		t.Fatalf("kernel %q read from a profile that has none", back.Kernel)
	}
}
