// Package sim predicts the completion time of a physical plan on a
// hypothetical deployment, using the fitted task-time models of package
// model and a deterministic simulation of Cumulon's slot scheduler. The
// optimizer calls it thousands of times per search, so prediction must be
// cheap: per-job work comes from the planner's per-task work profiles in
// class form (plan.Profile, memoized per job and split for the life of the
// predictor), each class is priced once per deployment, locality comes
// from the replication geometry. A prediction list-schedules every phase's
// tasks over the slots; a split sweep, which prices thousands of candidates,
// approximates each phase by waves of its mean task.
package sim

import (
	"math"

	"cumulon/internal/cloud"
	"cumulon/internal/model"
	"cumulon/internal/obs"
	"cumulon/internal/plan"
)

// Predictor predicts job and plan times for one concrete deployment.
// Work profiles depend on the job and its split only, not on the
// deployment, so a search reuses one predictor across its candidates —
// reassigning Model and Cluster — and derives each profile once. A
// Predictor is not safe for concurrent use.
type Predictor struct {
	Model   *model.TaskModel
	Cluster cloud.Cluster
	// Rec, when set, receives the predicted timeline of PredictPlan as a
	// span trace (program span plus one job span per job, at cumulative
	// offsets), so predictions can be compared structurally against an
	// executed trace with obs.DiffTraces. nil disables recording.
	Rec obs.Recorder

	profiles plan.ProfileMemo
	dur      []float64    // scratch: seconds per work class of the current phase
	free     []slotFree   // scratch: schedulePhase's slot heap
	splits   []plan.Split // scratch: BestSplit's candidates
}

// New constructs a predictor for a deployment.
func New(m *model.TaskModel, cluster cloud.Cluster) *Predictor {
	return &Predictor{Model: m, Cluster: cluster}
}

// replication is the engine's default replication on the cluster.
func (p *Predictor) replication() int { return min(cloud.DefaultReplication, p.Cluster.Nodes) }

// localFraction estimates how much of a task's read bytes are served from
// a local replica: each block has R replicas over n nodes, plus a small
// bonus for the scheduler's locality preference on the task's first input.
func (p *Predictor) localFraction() float64 {
	n := float64(p.Cluster.Nodes)
	r := float64(p.replication())
	f := r/n + 0.1
	if f > 1 {
		f = 1
	}
	return f
}

// diskNet folds a task's reads, split by the expected local fraction, and
// its (replicated) writes into the model's disk and network byte features.
func (p *Predictor) diskNet(w plan.TaskWork) (disk, net int64) {
	local := int64(float64(w.ReadBytes) * p.localFraction())
	return cloud.DiskNet(local, 0, w.ReadBytes-local, w.WriteBytes, 1, int64(p.replication()))
}

// TaskSeconds predicts one task's duration from its exact work profile.
func (p *Predictor) TaskSeconds(w plan.TaskWork) float64 {
	disk, net := p.diskNet(w)
	return p.Model.Predict(w.Flops, disk, net)
}

// classSeconds prices each work class of a phase once. The result is
// scratch, valid until the next call.
func (p *Predictor) classSeconds(ph plan.PhaseProfile) []float64 {
	p.dur = p.dur[:0]
	for _, w := range ph.Work {
		p.dur = append(p.dur, p.TaskSeconds(w))
	}
	return p.dur
}

// slotFree is one slot of schedulePhase's heap: when it frees up, and its
// index, which breaks ties.
type slotFree struct {
	at   float64
	slot int
}

func (a slotFree) before(b slotFree) bool {
	return a.at < b.at || (a.at == b.at && a.slot < b.slot)
}

// schedulePhase list-schedules a phase's tasks, in task order, over the
// cluster's slots — each task on the earliest-free slot, the lowest on
// ties: the engine's greedy discipline — and returns the makespan. A task
// takes its class's seconds, times a draw of residual when that is set
// (one draw per task, in task order). The slots sit in a binary min-heap
// ordered by (free time, index), so the pick is the one a scan for the
// first minimum makes and each slot accumulates the same additions in the
// same order: the makespan is bit-identical to the scan's, in O(log slots)
// per task.
func (p *Predictor) schedulePhase(ph plan.PhaseProfile, residual func() float64) float64 {
	dur := p.classSeconds(ph)
	slots := p.Cluster.TotalSlots()
	if cap(p.free) < slots {
		p.free = make([]slotFree, slots)
	}
	h := p.free[:slots]
	for i := range h {
		h[i] = slotFree{0, i} // all free at 0, in index order: already a heap
	}
	end := 0.0
	for _, c := range ph.Class {
		d := dur[c]
		if residual != nil {
			d *= residual()
		}
		top := h[0]
		top.at += d
		if top.at > end {
			end = top.at
		}
		// Sift the slot down from the root to its new place.
		i := 0
		for {
			next := 2*i + 1
			if next >= slots {
				break
			}
			if r := next + 1; r < slots && h[r].before(h[next]) {
				next = r
			}
			if !h[next].before(top) {
				break
			}
			h[i] = h[next]
			i = next
		}
		h[i] = top
	}
	return end
}

// PredictJob returns the predicted wall-clock seconds of one job under its
// current split, including job startup. Each phase is list-scheduled
// task-by-task over the cluster's slots, so uneven chunk sizes and partial
// waves are captured.
func (p *Predictor) PredictJob(j *plan.Job) float64 {
	total := cloud.JobStartupSec
	for _, ph := range p.profiles.Profile(j) {
		total += p.schedulePhase(ph, nil)
	}
	return total
}

// sweepJob is PredictJob over a job's profile with each phase's makespan
// approximated by waves: the split sweep's estimate.
func (p *Predictor) sweepJob(phases []plan.PhaseProfile) float64 {
	total := cloud.JobStartupSec
	for _, ph := range phases {
		total += p.wavePhase(ph)
	}
	return total
}

// wavePhase approximates a phase's makespan as full waves of the mean task
// duration, bounded below by the longest task.
func (p *Predictor) wavePhase(ph plan.PhaseProfile) float64 {
	dur := p.classSeconds(ph)
	var total, maxDur float64
	for _, c := range ph.Class {
		d := dur[c]
		total += d
		if d > maxDur {
			maxDur = d
		}
	}
	n := len(ph.Class)
	if n == 0 {
		return 0
	}
	waves := math.Ceil(float64(n) / float64(p.Cluster.TotalSlots()))
	t := waves * total / float64(n)
	if t < maxDur {
		t = maxDur
	}
	return t
}

// PredictPlan returns the predicted end-to-end seconds of the plan: jobs
// execute sequentially in dependency order, as in the engine. When Rec is
// set, the predicted timeline is recorded as a span trace.
func (p *Predictor) PredictPlan(pl *plan.Plan) float64 {
	rec := obs.OrNop(p.Rec)
	prog := rec.Start(obs.KindProgram, "program", obs.NoSpan, 0)
	var total float64
	for _, j := range pl.Jobs {
		sec := p.PredictJob(j)
		if rec.Enabled() {
			js := rec.Start(obs.KindJob, j.Name, prog, total)
			rec.SetAttrs(js, obs.Attrs{JobID: j.ID, Deps: j.Deps})
			rec.End(js, total+sec)
		}
		total += sec
	}
	rec.End(prog, total)
	return total
}

// BestSplit returns the split candidate of a job with the lowest wave-model
// time (sweepJob) whose plan.TaskFootprint fits in memBytesPerSlot (0: no
// bound), that time and true; when none fits, the smallest-footprint split,
// its time and false, which only the caller can flag. The job's split is
// left untouched; callers assign the result.
func (p *Predictor) BestSplit(j *plan.Job, memBytesPerSlot int64) (plan.Split, float64, bool) {
	old := j.Split
	defer func() { j.Split = old }()

	maxTasks := 8 * p.Cluster.TotalSlots()
	if maxTasks > 4096 {
		maxTasks = 4096
	}
	p.splits = plan.AppendSplitCandidates(p.splits[:0], j, maxTasks)
	best, bestTime := plan.Split{}, math.Inf(1)
	fallback, fallbackMem := plan.Split{}, int64(math.MaxInt64)
	for _, s := range p.splits {
		j.Split = s
		phases := p.profiles.Profile(j)
		if mem := plan.TaskFootprint(phases); memBytesPerSlot > 0 && mem > memBytesPerSlot {
			if mem < fallbackMem {
				fallback, fallbackMem = s, mem
			}
			continue
		}
		if t := p.sweepJob(phases); t < bestTime {
			best, bestTime = s, t
		}
	}
	if math.IsInf(bestTime, 1) {
		j.Split = fallback
		return fallback, p.sweepJob(p.profiles.Profile(j)), false
	}
	return best, bestTime, true
}

// OptimizeSplits assigns the best split to every job and returns the
// plan's total seconds under the wave model; PredictPlan prices the result
// exactly.
func (p *Predictor) OptimizeSplits(pl *plan.Plan, memBytesPerSlot int64) float64 {
	var total float64
	for _, j := range pl.Jobs {
		s, t, _ := p.BestSplit(j, memBytesPerSlot)
		j.Split = s
		total += t
	}
	return total
}
