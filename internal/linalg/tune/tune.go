// Package tune is the per-host autotuner of the dense-kernel tier: it
// benchmarks the real blocked-GEMM kernels on the machine it runs on,
// sweeping cache-blocking shapes (mc/kc/nc) and parallel worker counts,
// and emits a profile of the measurements. The profile serves two
// consumers:
//
//   - the kernel tier itself: Profile.Apply installs the best blocking
//     shape and worker bound process-wide (linalg.SetBlockDefaults /
//     linalg.SetParallelism), so subsequent tile products run at the
//     tuned configuration;
//   - the optimizer's hardware model: a profile passed to
//     (*model.Suite).Calibrate scales the calibrated machine throughput by
//     the measured parallel speedup,
//     closing the gap between what internal/model predicts and what the
//     kernel tier actually delivers (the paper's position that the
//     optimizer is only as good as its per-machine benchmarks).
//
// The sweep is seeded and its grid, ordering and JSON rendering are
// deterministic; only the measured throughput numbers vary with the
// host. Results are bit-identical at every point of the sweep — blocking
// and parallelism never change kernel output — so tuning is purely a
// wall-clock decision.
package tune

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"cumulon/internal/linalg"
)

// Options configures a sweep. Zero values select the defaults noted on
// each field.
type Options struct {
	// Size is the square GEMM size each point is measured at
	// (default 384; the smoke tests use smaller).
	Size int
	// Reps is the number of timed repetitions per point; the best
	// (minimum) time is kept, the standard answer to scheduler noise
	// (default 3).
	Reps int
	// MaxWorkers caps the worker sweep (default GOMAXPROCS). The sweep
	// always includes workers=1, the sequential baseline.
	MaxWorkers int
	// Shapes is the blocking-shape grid (default: a small grid around
	// the built-in defaults).
	Shapes []linalg.BlockShape
	// Seed drives the input data generator (default 1). Identical seeds
	// measure identical work at every point.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Size <= 0 {
		o.Size = 384
	}
	if o.Reps <= 0 {
		o.Reps = 3
	}
	if o.MaxWorkers <= 0 {
		o.MaxWorkers = runtime.GOMAXPROCS(0)
	}
	if len(o.Shapes) == 0 {
		o.Shapes = DefaultShapes()
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// DefaultShapes returns the standard blocking-shape grid: the built-in
// configuration plus neighbors that halve/double one factor at a time,
// which is where real hosts differ (L2 size moves mc·kc, L3 moves
// kc·nc). Halved MC and NC land on linalg.BlockQuantum's grid, so all
// seven shapes are legal whichever micro-kernel the host selected.
func DefaultShapes() []linalg.BlockShape {
	d := linalg.BlockDefaults()
	half := func(v int) int { return max(v/2/linalg.BlockQuantum, 1) * linalg.BlockQuantum }
	return []linalg.BlockShape{
		d,
		{MC: half(d.MC), KC: d.KC, NC: d.NC},
		{MC: d.MC * 2, KC: d.KC, NC: d.NC},
		{MC: d.MC, KC: max(d.KC/2, 1), NC: d.NC},
		{MC: d.MC, KC: d.KC * 2, NC: d.NC},
		{MC: d.MC, KC: d.KC, NC: half(d.NC)},
		{MC: d.MC, KC: d.KC, NC: d.NC * 2},
	}
}

// workerGrid returns the ascending worker counts to sweep: powers of two
// up to maxW, always including 1 and maxW itself.
func workerGrid(maxW int) []int {
	var out []int
	for w := 1; w < maxW; w *= 2 {
		out = append(out, w)
	}
	return append(out, maxW)
}

// Point is one measured sweep point.
type Point struct {
	Shape   linalg.BlockShape `json:"shape"`
	Workers int               `json:"workers"`
	MFlops  float64           `json:"mflops"`
}

// Profile is the persisted result of a sweep. The JSON rendering is
// deterministic: fixed field order, points in sweep order (shape-major,
// workers ascending), throughput rounded to 0.1 MFLOP/s. Kernel names the
// micro-kernel the numbers were measured under (linalg.KernelName; empty
// in profiles written before it was recorded): throughput and the best
// shape are that kernel's, so a profile is recognisable when it is
// applied under another.
type Profile struct {
	Version    int     `json:"version"`
	Size       int     `json:"size"`
	Reps       int     `json:"reps"`
	Seed       int64   `json:"seed"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Kernel     string  `json:"kernel,omitempty"`
	Best       Point   `json:"best"`
	Baseline   Point   `json:"baseline"` // best sequential (workers=1) point
	Points     []Point `json:"points"`
}

// ProfileVersion is the current profile schema version.
const ProfileVersion = 1

// Speedup returns the measured parallel-tier speedup: best tuned
// throughput over the best sequential throughput, clamped to at least 1
// (a host where fan-out loses simply keeps the sequential model).
func (p *Profile) Speedup() float64 {
	if p.Baseline.MFlops <= 0 || p.Best.MFlops <= p.Baseline.MFlops {
		return 1
	}
	return p.Best.MFlops / p.Baseline.MFlops
}

// Apply installs the profile's best configuration process-wide: the
// blocking shape via linalg.SetBlockDefaults and the worker bound via
// linalg.SetParallelism.
func (p *Profile) Apply() error {
	if _, err := linalg.SetBlockDefaults(p.Best.Shape); err != nil {
		return err
	}
	linalg.SetParallelism(p.Best.Workers)
	return nil
}

// Validate checks a loaded profile for internal consistency before it is
// trusted to reconfigure kernels or calibration.
func (p *Profile) Validate() error {
	if p.Version != ProfileVersion {
		return fmt.Errorf("tune: profile version %d, want %d", p.Version, ProfileVersion)
	}
	if err := p.Best.Shape.Validate(); err != nil {
		return err
	}
	if p.Best.Workers < 1 {
		return fmt.Errorf("tune: best worker count %d", p.Best.Workers)
	}
	if !(p.Best.MFlops > 0) || math.IsInf(p.Best.MFlops, 0) {
		return fmt.Errorf("tune: best throughput %v MFLOP/s", p.Best.MFlops)
	}
	if len(p.Points) == 0 {
		return fmt.Errorf("tune: profile has no sweep points")
	}
	return nil
}

// WriteJSON renders the profile deterministically.
func (p *Profile) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Read parses and validates a profile.
func Read(r io.Reader) (*Profile, error) {
	var p Profile
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("tune: parsing profile: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// LoadFile reads a profile from disk.
func LoadFile(path string) (*Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// round1 rounds to one decimal so profile bytes do not churn on noise
// beyond measurement precision.
func round1(v float64) float64 { return math.Round(v*10) / 10 }

// Sweep measures every (shape, workers) grid point on the current host
// and returns the profile. The first point of each shape is additionally
// checked bit-for-bit against the already-validated default path, so a
// tuner bug cannot install a mis-packing configuration.
func Sweep(o Options) (*Profile, error) {
	o = o.withDefaults()
	n := o.Size
	rng := rand.New(rand.NewSource(o.Seed))
	a, b := randomTile(rng, n), randomTile(rng, n)
	c := linalg.NewTile(n, n)

	// Reference result for the correctness cross-check, computed once
	// through the default blocked path.
	want := linalg.NewTile(n, n)
	if err := linalg.GemmBlockedWith(linalg.BlockDefaults(), 1, want, a, b); err != nil {
		return nil, err
	}

	flops := linalg.GemmFlops(n, n, n)
	workers := workerGrid(o.MaxWorkers)
	prof := &Profile{
		Version:    ProfileVersion,
		Size:       n,
		Reps:       o.Reps,
		Seed:       o.Seed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Kernel:     linalg.KernelName(),
	}
	for _, shape := range o.Shapes {
		if err := shape.Validate(); err != nil {
			return nil, err
		}
		checked := false
		for _, w := range workers {
			best := math.Inf(1)
			for rep := 0; rep < o.Reps; rep++ {
				c.Zero()
				t0 := time.Now()
				if err := linalg.GemmBlockedWith(shape, w, c, a, b); err != nil {
					return nil, err
				}
				if d := time.Since(t0).Seconds(); d < best {
					best = d
				}
			}
			if !checked {
				if !c.Equal(want) {
					return nil, fmt.Errorf("tune: shape %+v produced a result differing from the default path", shape)
				}
				checked = true
			}
			pt := Point{Shape: shape, Workers: w, MFlops: round1(float64(flops) / best / 1e6)}
			prof.Points = append(prof.Points, pt)
			if pt.MFlops > prof.Best.MFlops {
				prof.Best = pt
			}
			if w == 1 && pt.MFlops > prof.Baseline.MFlops {
				prof.Baseline = pt
			}
		}
	}
	return prof, nil
}

func randomTile(rng *rand.Rand, n int) *linalg.Tile {
	t := linalg.NewTile(n, n)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}
