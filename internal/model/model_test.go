package model

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"cumulon/internal/cloud"
)

// synthObs generates observations from known coefficients plus noise.
func synthObs(n int, b0, bf, bd, bn, noise float64, seed int64) []Obs {
	rng := rand.New(rand.NewSource(seed))
	obs := make([]Obs, n)
	for i := range obs {
		fl := int64(rng.Float64() * 5e9)
		db := int64(rng.Float64() * 4e8)
		nb := int64(rng.Float64() * 2e8)
		t := b0 + bf*float64(fl) + bd*float64(db) + bn*float64(nb)
		t *= 1 + noise*(rng.Float64()-0.5)
		obs[i] = Obs{Flops: fl, DiskBytes: db, NetBytes: nb, Seconds: t}
	}
	return obs
}

func TestFitRecoversCoefficients(t *testing.T) {
	b0, bf, bd, bn := 2.0, 1.25e-9, 1.0e-8, 2.5e-8
	obs := synthObs(500, b0, bf, bd, bn, 0, 1)
	m, err := Fit(obs)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, got, want float64) {
		if math.Abs(got-want) > 0.02*want+1e-12 {
			t.Fatalf("%s: got %g want %g", name, got, want)
		}
	}
	check("B0", m.B0, b0)
	check("BFlops", m.BFlops, bf)
	check("BDisk", m.BDisk, bd)
	check("BNet", m.BNet, bn)
}

func TestFitWithNoiseStillAccurate(t *testing.T) {
	obs := synthObs(800, 2.0, 1.25e-9, 1.0e-8, 2.5e-8, 0.2, 2)
	m, err := Fit(obs)
	if err != nil {
		t.Fatal(err)
	}
	holdout := synthObs(200, 2.0, 1.25e-9, 1.0e-8, 2.5e-8, 0.2, 3)
	if mre := MeanRelError(m, holdout); mre > 0.10 {
		t.Fatalf("holdout mean relative error %.3f too high", mre)
	}
}

func TestFitRejectsTooFewObs(t *testing.T) {
	if _, err := Fit(synthObs(3, 1, 1e-9, 1e-8, 1e-8, 0, 4)); err == nil {
		t.Fatal("want error for <4 observations")
	}
}

func TestFitRejectsSingularDesign(t *testing.T) {
	obs := make([]Obs, 10)
	for i := range obs {
		obs[i] = Obs{Flops: 1000, DiskBytes: 1000, NetBytes: 1000, Seconds: 5}
	}
	if _, err := Fit(obs); err == nil {
		t.Fatal("want singularity error")
	}
}

func TestPredictClampsBelowIntercept(t *testing.T) {
	m := &TaskModel{B0: 2, BFlops: 1e-9, BDisk: 1e-8, BNet: 1e-8}
	if got := m.Predict(0, 0, 0); got != 2 {
		t.Fatalf("zero-work prediction: %v", got)
	}
}

func TestCalibrateProducesAccurateModel(t *testing.T) {
	mt, err := cloud.TypeByName("c1.medium")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Calibrate(mt, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model.N < 50 {
		t.Fatalf("too few calibration observations: %d", res.Model.N)
	}
	// The model should fit its own calibration data within the straggler
	// noise level.
	if mre := MeanRelError(res.Model, res.Obs); mre > 0.15 {
		t.Fatalf("calibration mean relative error %.3f too high (%s)", mre, res.Model)
	}
	// Physical plausibility: flop rate within 3x of the machine's nominal.
	nominal := 1 / (mt.FlopsPerSec() / 2) // per-slot (2 slots on 2 cores)
	if res.Model.BFlops <= 0 {
		t.Fatal("flop coefficient must be positive")
	}
	ratio := res.Model.BFlops / nominal
	if ratio < 0.3 || ratio > 3 {
		t.Fatalf("fitted flop rate implausible: ratio %v (%s)", ratio, res.Model)
	}
}

// TestSuiteReplayMatchesFreshCalibration: a calibration that replays the
// suite another calibration recorded fits exactly the model a fresh one
// does — observations, coefficients and residuals alike — for every
// (machine type, slots) pair the optimizer sweeps, whichever pair records
// and in whichever order the rest replay.
func TestSuiteReplayMatchesFreshCalibration(t *testing.T) {
	type pair struct {
		mt    cloud.MachineType
		slots int
	}
	var pairs []pair
	for _, mt := range cloud.Catalog() {
		for _, s := range []int{1, mt.Cores / 2, mt.Cores, 2 * mt.Cores} {
			if s >= 1 && (len(pairs) == 0 || pairs[len(pairs)-1] != pair{mt, s}) {
				pairs = append(pairs, pair{mt, s})
			}
		}
	}
	fresh := make([]*CalibrationResult, len(pairs))
	for i, p := range pairs {
		var err error
		if fresh[i], err = new(Suite).Calibrate(p.mt, p.slots, 7); err != nil {
			t.Fatal(err)
		}
	}
	for _, reverse := range []bool{false, true} {
		var suite Suite
		for n := range pairs {
			i := n
			if reverse {
				i = len(pairs) - 1 - n
			}
			got, err := suite.Calibrate(pairs[i].mt, pairs[i].slots, 7)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, fresh[i]) {
				t.Fatalf("%s/%d (reverse %v): the replayed calibration differs from a fresh one\nreplayed %s\nfresh    %s",
					pairs[i].mt.Name, pairs[i].slots, reverse, got.Model, fresh[i].Model)
			}
		}
	}
}

// TestSuiteLoadsKeyedBySeed: a suite that calibrates under two seeds starts
// each from the load recorded under its own seed. Seeds 7 and 8 also share
// streams across roles (seed 7's placement stream is seed 8's noise stream
// for every benchmark and split), which the memo must serve from position 0
// to both.
func TestSuiteLoadsKeyedBySeed(t *testing.T) {
	small, _ := cloud.TypeByName("m1.small")
	big, _ := cloud.TypeByName("c1.xlarge")
	var suite Suite
	for _, c := range []struct {
		mt    cloud.MachineType
		slots int
		seed  int64
	}{{small, 1, 7}, {big, 4, 8}, {big, 8, 7}, {small, 1, 8}} {
		got, err := suite.Calibrate(c.mt, c.slots, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Calibrate(c.mt, c.slots, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, fresh) {
			t.Fatalf("%s/%d seed %d: the suite's calibration differs from a fresh one\nsuite %s\nfresh %s",
				c.mt.Name, c.slots, c.seed, got.Model, fresh.Model)
		}
	}
}

// recorded counts what the suite holds: stream values drawn, the bytes its
// memos' recorded phases retain (every phase records more than none), and
// loads recorded.
func (s *Suite) recorded() (values int, phaseBytes int64, loads int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.streams {
		values += len(st.out)
	}
	for i := range s.memos {
		for k := range s.memos[i] {
			phaseBytes += s.memos[i][k].Bytes()
		}
	}
	return values, phaseBytes, len(s.loads)
}

// TestFrozenSuiteServesEveryPair: once one calibration has run through a
// suite, calibrating every catalog pair at the same seed draws no stream
// value, records no phase and adds no load — the suite is only read from
// then on, which is what lets its draws go without a lock. Four goroutines
// calibrating every pair at once through it then each fit exactly the model
// a fresh calibration does.
func TestFrozenSuiteServesEveryPair(t *testing.T) {
	type pair struct {
		mt    cloud.MachineType
		slots int
	}
	var pairs []pair
	for _, mt := range cloud.Catalog() {
		for _, s := range []int{1, mt.Cores / 2, mt.Cores, 2 * mt.Cores} {
			if s >= 1 && (len(pairs) == 0 || pairs[len(pairs)-1] != pair{mt, s}) {
				pairs = append(pairs, pair{mt, s})
			}
		}
	}
	for _, seed := range []int64{7, 8} {
		var suite Suite
		if _, err := suite.Calibrate(pairs[0].mt, pairs[0].slots, seed); err != nil {
			t.Fatal(err)
		}
		values, phases, loads := suite.recorded()
		if phases == 0 {
			t.Fatalf("seed %d: the first calibration recorded no phase", seed)
		}
		fresh := make([]*CalibrationResult, len(pairs))
		for i, p := range pairs {
			if _, err := suite.Calibrate(p.mt, p.slots, seed); err != nil {
				t.Fatal(err)
			}
			if v, ph, l := suite.recorded(); v != values || ph != phases || l != loads {
				t.Fatalf("seed %d, %s/%d: the suite grew from %d values, %d phase bytes, %d loads to %d, %d, %d",
					seed, p.mt.Name, p.slots, values, phases, loads, v, ph, l)
			}
			var err error
			if fresh[i], err = Calibrate(p.mt, p.slots, seed); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := range pairs {
					i := (n + g*len(pairs)/4) % len(pairs)
					got, err := suite.Calibrate(pairs[i].mt, pairs[i].slots, seed)
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(got, fresh[i]) {
						t.Errorf("seed %d, goroutine %d, %s/%d: a concurrent calibration differs from a fresh one",
							seed, g, pairs[i].mt.Name, pairs[i].slots)
						return
					}
				}
			}()
		}
		wg.Wait()
		if v, ph, l := suite.recorded(); v != values || ph != phases || l != loads {
			t.Fatalf("seed %d: concurrent calibrations grew the suite", seed)
		}
	}
}

func TestCalibratedModelsOrderMachines(t *testing.T) {
	small, _ := cloud.TypeByName("m1.small")
	big, _ := cloud.TypeByName("c1.xlarge")
	rs, err := Calibrate(small, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Calibrate(big, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	fl, db, nb := int64(5e9), int64(2e8), int64(1e8)
	if rb.Model.Predict(fl, db, nb) >= rs.Model.Predict(fl, db, nb) {
		t.Fatalf("c1.xlarge predicted slower than m1.small: %v vs %v",
			rb.Model.Predict(fl, db, nb), rs.Model.Predict(fl, db, nb))
	}
}

func TestResidualDistribution(t *testing.T) {
	obs := synthObs(400, 2.0, 1.25e-9, 1.0e-8, 2.5e-8, 0.3, 6)
	m, err := Fit(obs)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Residuals) != len(obs) {
		t.Fatalf("residual count: %d", len(m.Residuals))
	}
	// Sorted, centered near 1.
	for i := 1; i < len(m.Residuals); i++ {
		if m.Residuals[i] < m.Residuals[i-1] {
			t.Fatal("residuals not sorted")
		}
	}
	med := m.SampleResidual(0.5)
	if med < 0.8 || med > 1.2 {
		t.Fatalf("median residual %v far from 1", med)
	}
	// Sampling covers the support deterministically from the variate.
	if m.SampleResidual(0) != m.Residuals[0] {
		t.Fatal("u=0 should give the smallest residual")
	}
	if m.SampleResidual(0.999999) != m.Residuals[len(m.Residuals)-1] {
		t.Fatal("u->1 should give the largest residual")
	}
	// Empty-residual models degrade to the point estimate.
	empty := &TaskModel{B0: 1}
	if empty.SampleResidual(0.5) != 1 {
		t.Fatal("empty residuals should return 1")
	}
}

func TestModelString(t *testing.T) {
	m := &TaskModel{B0: 1.5, BFlops: 1e-9, BDisk: 1e-8, BNet: 2e-8, N: 10}
	if s := m.String(); s == "" {
		t.Fatal("empty string")
	}
}
