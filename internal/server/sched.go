// Package server is cumulond: a long-running multi-tenant job service
// wrapping core.Session. Clients submit program source over HTTP+JSON;
// an admission controller queues jobs against a shared simulated
// cluster's node capacity; a weighted fair-share scheduler with
// priority aging orders the queue across tenants; admitted jobs run on
// worker goroutines over per-job engine instances; and a plan cache
// keyed by program hash × config fronts compilation and the optimizer.
// Per-tenant metrics fold into an obs.Registry served at /metrics.
package server

import "sort"

// SchedJob is one queued unit of work as the scheduler sees it: no
// program, no plan — just the identity, size and urgency the ordering
// decision needs. The fairness tests drive the scheduler with synthetic
// SchedJobs and a logical clock, never running real programs.
type SchedJob struct {
	ID     string
	Tenant string
	// Priority raises urgency within and across tenants (default 0;
	// higher is more urgent). One priority point is worth PriorityBoost
	// service units of head start.
	Priority float64
	// Nodes is the cluster share the job needs while running.
	Nodes int
	// Enqueued is the submission time in seconds on the caller's clock.
	Enqueued float64

	seq int // arrival order, the final tiebreaker
}

// SchedConfig tunes the fair-share scheduler.
type SchedConfig struct {
	// Weights maps tenant name to fair-share weight; tenants absent from
	// the map get DefaultWeight. A tenant with weight 2 is entitled to
	// twice the service of a tenant with weight 1 under contention.
	Weights map[string]float64
	// DefaultWeight is the weight of unlisted tenants (default 1).
	DefaultWeight float64
	// AgingRate is the service-units-per-second a waiting job's rank
	// improves by (default 1). Aging guarantees starvation-freedom: any
	// fixed service deficit is eventually outweighed by waiting.
	AgingRate float64
	// PriorityBoost converts one priority point into service units of
	// head start (default 100).
	PriorityBoost float64
	// ReserveAfterSec bounds head-of-line bypass: once the best-ranked
	// queued job has waited this long without fitting the free capacity,
	// no worse-ranked job may be scheduled around it — the scheduler
	// drains until the reserved job fits. This bounds the wait of wide
	// jobs that backfilling would otherwise starve (default 60).
	ReserveAfterSec float64
}

func (c SchedConfig) withDefaults() SchedConfig {
	if c.DefaultWeight <= 0 {
		c.DefaultWeight = 1
	}
	if c.AgingRate <= 0 {
		c.AgingRate = 1
	}
	if c.PriorityBoost <= 0 {
		c.PriorityBoost = 100
	}
	if c.ReserveAfterSec <= 0 {
		c.ReserveAfterSec = 60
	}
	return c
}

// FairScheduler orders queued jobs by weighted fair share across
// tenants with priority aging. It is a passive data structure — the
// caller supplies the clock and drives Push/Next/Charge under its own
// lock — so tests can replay seeded arrival schedules against a logical
// clock and assert deterministic, starvation-free order.
//
// Rank: each queued job scores
//
//	service(tenant)/weight(tenant) − AgingRate·wait − PriorityBoost·priority
//
// and the lowest score runs next (ties: arrival order). Service is the
// cumulative cost Charge has attributed to the tenant (the server
// charges simulated slot-seconds), so tenants that have consumed less
// than their share rank first; the aging term grows without bound, so
// every job's rank eventually beats any fixed deficit — no tenant
// starves behind a heavy one.
type FairScheduler struct {
	cfg     SchedConfig
	service map[string]float64
	queue   []*SchedJob
	seq     int
}

// NewFairScheduler returns an empty scheduler.
func NewFairScheduler(cfg SchedConfig) *FairScheduler {
	return &FairScheduler{cfg: cfg.withDefaults(), service: map[string]float64{}}
}

// Weight returns the tenant's configured fair-share weight.
func (f *FairScheduler) Weight(tenant string) float64 {
	if w, ok := f.cfg.Weights[tenant]; ok && w > 0 {
		return w
	}
	return f.cfg.DefaultWeight
}

// Push enqueues a job. The job's Enqueued time must be on the same
// clock later passed to Next.
func (f *FairScheduler) Push(j SchedJob) {
	cp := j
	cp.seq = f.seq
	f.seq++
	f.queue = append(f.queue, &cp)
}

// Score returns the job's current rank (lower runs first).
func (f *FairScheduler) Score(j *SchedJob, now float64) float64 {
	wait := now - j.Enqueued
	if wait < 0 {
		wait = 0
	}
	return f.service[j.Tenant]/f.Weight(j.Tenant) - f.cfg.AgingRate*wait - f.cfg.PriorityBoost*j.Priority
}

// ranked returns the queue indices in rank order.
func (f *FairScheduler) ranked(now float64) []int {
	order := make([]int, len(f.queue))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ja, jb := f.queue[order[a]], f.queue[order[b]]
		sa, sb := f.Score(ja, now), f.Score(jb, now)
		if sa != sb {
			return sa < sb
		}
		return ja.seq < jb.seq
	})
	return order
}

// Next pops the job that should run now given freeNodes of spare
// capacity, or nil if nothing should start. The best-ranked job that
// fits wins; jobs too wide for the current free capacity are backfilled
// around only until they have waited ReserveAfterSec, after which the
// scheduler returns nil until capacity frees up for them (bounded-wait
// reservation for wide jobs).
func (f *FairScheduler) Next(freeNodes int, now float64) *SchedJob {
	for _, i := range f.ranked(now) {
		j := f.queue[i]
		if j.Nodes <= freeNodes {
			f.queue = append(f.queue[:i], f.queue[i+1:]...)
			return j
		}
		if now-j.Enqueued >= f.cfg.ReserveAfterSec {
			// Reserved: stop backfilling around this starving wide job.
			return nil
		}
	}
	return nil
}

// Charge attributes cost service units to the tenant; the scheduler
// deprioritizes the tenant's queued jobs accordingly.
func (f *FairScheduler) Charge(tenant string, cost float64) {
	if cost > 0 {
		f.service[tenant] += cost
	}
}

// Service returns the cumulative service charged to the tenant.
func (f *FairScheduler) Service(tenant string) float64 { return f.service[tenant] }

// Remove deletes a queued job by ID (cancellation); it reports whether
// the job was queued.
func (f *FairScheduler) Remove(id string) bool {
	for i, j := range f.queue {
		if j.ID == id {
			f.queue = append(f.queue[:i], f.queue[i+1:]...)
			return true
		}
	}
	return false
}

// Depth returns the number of queued jobs.
func (f *FairScheduler) Depth() int { return len(f.queue) }
