package sim

import (
	"math"
	"math/rand"
	"testing"

	"cumulon/internal/cloud"
	"cumulon/internal/model"
	"cumulon/internal/plan"
)

// scanSchedulePhase is the scheduler schedulePhase replaced, kept as its
// oracle: a linear scan for the first earliest-free slot per task. It also
// returns when each slot ends up free.
func scanSchedulePhase(p *Predictor, ph plan.PhaseProfile, residual func() float64) (float64, []float64) {
	dur := append([]float64(nil), p.classSeconds(ph)...)
	free := make([]float64, p.Cluster.TotalSlots())
	end := 0.0
	for _, c := range ph.Class {
		best := 0
		for i := 1; i < len(free); i++ {
			if free[i] < free[best] {
				best = i
			}
		}
		d := dur[c]
		if residual != nil {
			d *= residual()
		}
		free[best] += d
		if free[best] > end {
			end = free[best]
		}
	}
	return end, free
}

// sameSchedule compares a heap run (its makespan, and the slot heap it left
// in p.free) with a scan run bit for bit. The makespan alone cannot tell
// tied slots apart; each slot's final free time can.
func sameSchedule(p *Predictor, got, want float64, wantFree []float64) bool {
	if math.Float64bits(got) != math.Float64bits(want) {
		return false
	}
	for _, s := range p.free[:len(wantFree)] {
		if math.Float64bits(s.at) != math.Float64bits(wantFree[s.slot]) {
			return false
		}
	}
	return true
}

// randomPhase draws a phase of n tasks over the given number of classes,
// each of 1 to 4 flops: durations so coarse that slots tie often.
func randomPhase(rng *rand.Rand, n, classes int) plan.PhaseProfile {
	ph := plan.PhaseProfile{Class: make([]uint8, n)}
	for c := 0; c < classes; c++ {
		ph.Work = append(ph.Work, plan.TaskWork{Flops: int64(1 + rng.Intn(4))})
	}
	for i := range ph.Class {
		ph.Class[i] = uint8(rng.Intn(classes))
	}
	return ph
}

// TestSlotHeapMatchesScan holds the heap scheduler bit-equal to the linear
// scan: same slot on every tie, same additions in the same order.
func TestSlotHeapMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Under 0.25 s/flop every sum is exact, so slots tie all the time; under
	// the second model sums round, so a different order of additions shows.
	models := []*model.TaskModel{
		{BFlops: 0.25},
		{B0: 0.1, BFlops: math.Pi / 7},
	}
	cases := []struct {
		name                   string
		nodes, slots           int
		minTasks, maxTasks     int
		minClasses, maxClasses int
	}{
		{"all-equal durations", 5, 3, 1, 200, 1, 1},
		{"more slots than tasks", 16, 8, 1, 100, 1, 5},
		{"one slot", 1, 1, 1, 50, 1, 6},
		{"27 classes", 7, 2, 1, 400, 27, 27},
		{"few classes, odd slot counts", 3, 3, 1, 300, 2, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for trial := 0; trial < 200; trial++ {
				m := models[trial%len(models)]
				p := New(m, cloud.Cluster{Nodes: c.nodes, Slots: c.slots})
				n := c.minTasks + rng.Intn(c.maxTasks-c.minTasks+1)
				ph := randomPhase(rng, n, c.minClasses+rng.Intn(c.maxClasses-c.minClasses+1))
				want, wantFree := scanSchedulePhase(p, ph, nil)
				if got := p.schedulePhase(ph, nil); !sameSchedule(p, got, want, wantFree) {
					t.Fatalf("trial %d (%d tasks, %d slots): heap makespan %v and slots %v, scan %v and %v",
						trial, n, c.nodes*c.slots, got, p.free, want, wantFree)
				}
			}
		})
	}
}

// TestSlotHeapResidualDrawOrder checks the Monte Carlo form: one residual
// draw per task, in task order, and a makespan bit-equal to the scan's
// under the same draws.
func TestSlotHeapResidualDrawOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := &model.TaskModel{B0: 0.05, BFlops: 1.0 / 3}
	for trial := 0; trial < 200; trial++ {
		p := New(m, cloud.Cluster{Nodes: 1 + rng.Intn(6), Slots: 1 + rng.Intn(4)})
		ph := randomPhase(rng, 1+rng.Intn(150), 1+rng.Intn(27))
		draws := make([]float64, len(ph.Class))
		for i := range draws {
			draws[i] = 0.5 + rng.Float64()
		}
		// The i-th call returns draws[i]: a scheduler that drew for its
		// tasks in another order would pair durations with other draws.
		calls := 0
		residual := func() float64 {
			calls++
			return draws[calls-1]
		}
		want, wantFree := scanSchedulePhase(p, ph, residual)
		calls = 0
		got := p.schedulePhase(ph, residual)
		if calls != len(ph.Class) {
			t.Fatalf("trial %d: %d tasks drew %d residuals", trial, len(ph.Class), calls)
		}
		if !sameSchedule(p, got, want, wantFree) {
			t.Fatalf("trial %d: heap makespan %v and slots %v, scan %v and %v", trial, got, p.free, want, wantFree)
		}
	}
}
