package server

import (
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"cumulon/internal/ckpt"
	"cumulon/internal/cloud"
	"cumulon/internal/core"
	"cumulon/internal/obs"
	"cumulon/internal/plan"
)

// Config configures a Server.
type Config struct {
	// Machine is the shared cluster's machine type (default m1.large).
	Machine string
	// Nodes is the shared cluster's node capacity (default 16): the sum
	// of all running jobs' cluster sizes never exceeds it. A submission
	// asking for more nodes than this is rejected outright.
	Nodes int
	// Slots is the default task slots per node for jobs that don't ask
	// (default 2).
	Slots int
	// Seed is the server's default seed for jobs that don't supply one
	// (default 42).
	Seed int64
	// DefaultJobNodes sizes jobs that don't ask (default 4, capped at
	// Nodes).
	DefaultJobNodes int
	// MaxQueue bounds the admission queue; submissions beyond it get 429
	// (default 1024).
	MaxQueue int
	// Workers bounds how many tasks a materialized job computes at once
	// (see exec.Config.Workers): 0 = the host's compute budget, which all
	// running jobs share; 1 = sequential.
	Workers int
	// Sched tunes the fair-share scheduler (weights, aging, reservation).
	Sched SchedConfig
	// CacheSize bounds the combined plan+deployment cache entry count;
	// least-recently-used entries are evicted beyond it (default 256).
	CacheSize int
	// JobHistory bounds retained terminal jobs: the oldest finished jobs
	// beyond it are pruned from the store (default 512).
	JobHistory int
	// ArtifactHistory bounds how many finished jobs keep their retained
	// artifacts (trace/critpath/metrics/explain); older artifact sets
	// are dropped first (default 64).
	ArtifactHistory int
	// EventBuffer bounds each job's event ring buffer (default 4096).
	// Overflowing events are evicted oldest-first; consumers resuming
	// below the retained window get 410 Gone.
	EventBuffer int
	// Pprof mounts net/http/pprof under /debug/pprof/ when set.
	Pprof bool
	// StateDir makes the job store durable: job transitions are
	// journaled under <StateDir>/jobs (write-ahead JSONL plus rotated
	// snapshots) and program checkpoints persist under <StateDir>/ckpt.
	// A restarted server recovers its job history, re-queues jobs that
	// were waiting, and re-admits jobs that were running — which then
	// resume from their newest program checkpoint. Empty disables
	// durability (checkpoints, if requested, live in process memory).
	StateDir string
}

// WithDefaults returns c with every unset field, Sched's too, at its
// default: the configuration New runs with.
func (c Config) WithDefaults() Config {
	c.Sched = c.Sched.withDefaults()
	if c.Machine == "" {
		c.Machine = "m1.large"
	}
	if c.Nodes <= 0 {
		c.Nodes = 16
	}
	if c.Slots <= 0 {
		c.Slots = 2
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.DefaultJobNodes <= 0 {
		c.DefaultJobNodes = 4
	}
	if c.DefaultJobNodes > c.Nodes {
		c.DefaultJobNodes = c.Nodes
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 1024
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.JobHistory <= 0 {
		c.JobHistory = 512
	}
	if c.ArtifactHistory <= 0 {
		c.ArtifactHistory = 64
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = 4096
	}
	return c
}

// Server is the cumulond job service. Create with New, serve Handler()
// over HTTP, and Close when done. All exported methods are safe for
// concurrent use.
type Server struct {
	cfg     Config
	machine cloud.MachineType
	sess    *core.Session
	cache   *PlanCache
	start   time.Time

	mu        sync.Mutex
	store     *jobStore
	sched     *FairScheduler
	freeNodes int
	running   int
	closed    bool

	// persist journals job transitions when Config.StateDir is set
	// (nil otherwise); ckptStore receives program checkpoints of jobs
	// that ask for them (durable under StateDir, in-memory otherwise).
	persist   *statePersister
	ckptStore ckpt.Store

	// artifactOrder lists jobs with retained artifacts, oldest first;
	// beyond cfg.ArtifactHistory the oldest set is dropped.
	artifactOrder []string
	// tenantHists caches per-tenant histogram series handles so the
	// record path is map-free after first use.
	tenantHists map[string]*tenantSeries
	// lastEvictions tracks the cache eviction count already folded into
	// the evictions counter.
	lastEvictions int64

	wake chan struct{}
	quit chan struct{}
	wg   sync.WaitGroup // scheduler loop + running jobs

	// Metrics (registry writes are guarded by mu). mJobs counts each
	// cause's transitions, by tenant; the admit and recover edges count none.
	reg            *obs.Registry
	mJobs          [len(edges)]*obs.Counter
	mQueueWaitSum  *obs.Counter
	mQueueWaitMax  *obs.Gauge
	mQueueWaitHist *obs.Histogram
	mCost          *obs.Counter
	mVirtualSec    *obs.Counter
	mService       *obs.Counter
	mCacheHits     *obs.Gauge
	mCacheMisses   *obs.Gauge
	mDepHits       *obs.Gauge
	mDepMisses     *obs.Gauge
	mRunning       *obs.Gauge
	mQueueDepth    *obs.Gauge
	mFreeNodes     *obs.Gauge
	mCompileHist   *obs.Histogram
	mRunHist       *obs.Histogram
	mE2EHist       *obs.Histogram
	mDebt          *obs.Gauge
	mEvictions     *obs.Counter
	mTraceBytes    *obs.Gauge
	mPruned        *obs.Counter
	mJournalErrors *obs.Gauge
}

// tenantSeries caches one tenant's latency histogram series handles.
type tenantSeries struct {
	queue, compile, run, e2e *obs.HistSeries
}

// tenantHist returns (creating on first use) the cached series handles
// for a tenant. Callers hold s.mu.
func (s *Server) tenantHist(tenant string) *tenantSeries {
	ts := s.tenantHists[tenant]
	if ts == nil {
		l := obs.Label{Key: "tenant", Value: tenant}
		ts = &tenantSeries{
			queue:   s.mQueueWaitHist.With(l),
			compile: s.mCompileHist.With(l),
			run:     s.mRunHist.With(l),
			e2e:     s.mE2EHist.With(l),
		}
		s.tenantHists[tenant] = ts
	}
	return ts
}

// New builds a server and starts its scheduler loop.
func New(cfg Config) (*Server, error) {
	cfg = cfg.WithDefaults()
	mt, err := cloud.TypeByName(cfg.Machine)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:         cfg,
		machine:     mt,
		sess:        core.NewSession(cfg.Seed),
		cache:       NewPlanCache(cfg.CacheSize),
		start:       time.Now(),
		store:       newJobStore(),
		sched:       NewFairScheduler(cfg.Sched),
		freeNodes:   cfg.Nodes,
		tenantHists: map[string]*tenantSeries{},
		wake:        make(chan struct{}, 1),
		quit:        make(chan struct{}),
		reg:         obs.NewRegistry(),
	}
	r := s.reg
	s.mJobs[causeSubmit] = r.Counter("cumulond_jobs_submitted_total", "jobs admitted, by tenant")
	s.mJobs[causeFinishOK] = r.Counter("cumulond_jobs_completed_total", "jobs finished successfully, by tenant")
	s.mJobs[causeFinishErr] = r.Counter("cumulond_jobs_failed_total", "jobs that errored, by tenant")
	s.mJobs[causeCancel] = r.Counter("cumulond_jobs_canceled_total", "jobs canceled while queued, by tenant")
	s.mQueueWaitSum = r.Counter("cumulond_queue_wait_seconds_total", "cumulative admission-to-start wait, by tenant")
	s.mQueueWaitMax = r.Gauge("cumulond_queue_wait_max_seconds", "largest admission-to-start wait among retained jobs, by tenant")
	s.mQueueWaitHist = r.Histogram("cumulond_queue_wait_seconds", "admission-to-start wait distribution, by tenant",
		obs.LatencyBuckets)
	s.mCompileHist = r.Histogram("cumulond_compile_seconds", "plan compile wall time (cache hits are ~0), by tenant",
		obs.LatencyBuckets)
	s.mRunHist = r.Histogram("cumulond_run_seconds", "engine run wall time, by tenant",
		obs.LatencyBuckets)
	s.mE2EHist = r.Histogram("cumulond_e2e_seconds", "admission-to-terminal wall time, by tenant",
		obs.LatencyBuckets)
	s.mCost = r.Counter("cumulond_cost_dollars_total", "simulated dollars billed, by tenant")
	s.mVirtualSec = r.Counter("cumulond_virtual_seconds_total", "simulated program seconds executed, by tenant")
	s.mService = r.Counter("cumulond_service_slot_seconds_total", "fair-share service charged (virtual slot-seconds), by tenant")
	s.mCacheHits = r.Gauge("cumulond_plan_cache_hits", "plan cache hits (compile served from cache)")
	s.mCacheMisses = r.Gauge("cumulond_plan_cache_misses", "plan cache misses (programs compiled)")
	s.mDepHits = r.Gauge("cumulond_deployment_cache_hits", "optimizer deployment cache hits")
	s.mDepMisses = r.Gauge("cumulond_deployment_cache_misses", "optimizer searches run (deployment cache misses)")
	s.mRunning = r.Gauge("cumulond_jobs_running", "jobs currently executing")
	s.mQueueDepth = r.Gauge("cumulond_queue_depth", "jobs waiting for capacity")
	s.mFreeNodes = r.Gauge("cumulond_nodes_free", "unallocated nodes of the shared cluster")
	s.mDebt = r.Gauge("cumulond_fair_share_debt", "normalized service above the best-served tenant (service/weight minus the minimum), by tenant")
	s.mEvictions = r.Counter("cumulond_plan_cache_evictions_total", "plan/deployment cache entries evicted by the LRU bound")
	s.mTraceBytes = r.Gauge("cumulond_plan_cache_trace_bytes", "bytes of virtual task results the cached plans' memos retain")
	s.mPruned = r.Counter("cumulond_jobs_pruned_total", "terminal jobs removed by job-history retention")
	s.mJournalErrors = r.Gauge("cumulond_journal_errors_total", "journal records dropped and flushes refused since the journal's first write or sync error, which is final")

	if cfg.StateDir != "" {
		cs, err := ckpt.NewDirStore(filepath.Join(cfg.StateDir, "ckpt"))
		if err != nil {
			return nil, err
		}
		s.ckptStore = cs
		p, snap, err := openState(filepath.Join(cfg.StateDir, "jobs"))
		if err != nil {
			return nil, err
		}
		s.recover(snap)
		// Reconciled state (running jobs re-queued, unparseable ones
		// failed) becomes the new generation's snapshot.
		cur := &snapshotFile{Seq: s.store.seq}
		for _, id := range s.store.order {
			cur.Jobs = append(cur.Jobs, s.persistedOf(s.store.jobs[id]))
		}
		if err := p.begin(cur); err != nil {
			return nil, err
		}
		// Fed by flush under the persister's own lock, not s.mu.
		p.syncSec = r.Histogram("cumulond_journal_sync_seconds", "wall time of one journal sync",
			obs.LatencyBuckets).With()
		p.recsPerSync = r.Histogram("cumulond_journal_records_per_sync", "journal records one sync made durable",
			[]float64{1, 2, 3, 4, 6, 8, 12, 16, 32, 64}).With()
		s.persist = p
	} else {
		s.ckptStore = ckpt.NewMemStore()
	}

	s.wg.Add(1)
	go s.loop()
	s.signal() // admit any recovered queued jobs
	return s, nil
}

// Close stops scheduling, waits for running jobs to finish, and leaves
// queued jobs queued.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.quit)
	s.wg.Wait()
	if s.persist != nil {
		s.persist.close()
	}
}

// now is the server clock: seconds since start.
func (s *Server) now() float64 { return time.Since(s.start).Seconds() }

// signal wakes the scheduler loop (non-blocking; the channel carries no
// data, only "state changed").
func (s *Server) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// loop admits queued jobs whenever capacity or queue state changes.
func (s *Server) loop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case <-s.wake:
		}
		s.mu.Lock()
		for {
			sj := s.sched.Next(s.freeNodes, s.now())
			if sj == nil {
				break
			}
			j := s.store.jobs[sj.ID]
			if s.transition(j, causeAdmit, nil) != nil {
				continue // the admit edge refuses a job no longer queued
			}
			s.freeNodes -= sj.Nodes
			s.running++
			wait, l := j.status.QueueWaitSec, obs.Label{Key: "tenant", Value: j.req.Tenant}
			s.mQueueWaitSum.Add(wait, l)
			s.mQueueWaitHist.Observe(wait)
			s.tenantHist(j.req.Tenant).queue.Observe(wait)
			s.wg.Add(1)
			go s.runJob(j, sj)
		}
		s.mu.Unlock()
	}
}

// execOutcome carries what executeJob learned besides the result.
type execOutcome struct {
	res        *core.ExecResult
	cluster    string
	planHit    bool
	compileSec float64
	trace      *obs.Trace // non-nil when the job opted into artifacts
}

// runJob executes one admitted job on its own engine instance and
// records the outcome.
func (s *Server) runJob(j *job, sj *SchedJob) {
	defer s.wg.Done()
	started := time.Now()
	out, err := s.executeJob(j)

	s.mu.Lock()
	j.status.RunSec = time.Since(started).Seconds()
	j.status.Cluster = out.cluster
	j.status.PlanCacheHit = out.planHit
	finish := causeFinishOK
	if err != nil {
		finish = causeFinishErr
		j.status.Error = err.Error()
	} else {
		res := out.res
		j.status.Result = resultFrom(res)
		service := res.Metrics.TotalSeconds * float64(sj.Nodes) * float64(j.req.Slots)
		s.sched.Charge(j.req.Tenant, service)
		l := obs.Label{Key: "tenant", Value: j.req.Tenant}
		s.mCost.Add(res.CostDollars, l)
		s.mVirtualSec.Add(res.Metrics.TotalSeconds, l)
		s.mService.Add(service, l)
	}
	ts := s.tenantHist(j.req.Tenant)
	ts.compile.Observe(out.compileSec)
	ts.run.Observe(j.status.RunSec)
	ts.e2e.Observe(j.status.QueueWaitSec + j.status.RunSec)
	s.mCompileHist.Observe(out.compileSec)
	s.mRunHist.Observe(j.status.RunSec)
	s.mE2EHist.Observe(j.status.QueueWaitSec + j.status.RunSec)
	s.transition(j, finish, out.trace)
	s.freeNodes += sj.Nodes
	s.running--
	s.signal()
	s.mu.Unlock()
	// The worker outlives its terminal record's sync, so Close, which
	// waits for the workers, leaves a complete journal.
	s.flushJournal()
}

// executeJob does the cache-fronted compile and the engine run, outside
// the server lock. It feeds the job's event stream and, when the job
// opted into artifact retention, records a private obs.Trace whose
// Chrome export matches a direct CLI run of the same
// program/config/seed byte for byte.
func (s *Server) executeJob(j *job) (execOutcome, error) {
	req := j.req
	var out execOutcome
	cfg := plan.ConfigFor(j.prog, req.Tile, req.Density)
	j.events.emit(JobEvent{Type: EvCompiling})
	compileStart := time.Now()
	tmpl, _, planHit, err := s.cache.Compile(req.Program, cfg)
	out.compileSec = time.Since(compileStart).Seconds()
	if err != nil {
		return out, err
	}
	out.planHit = planHit
	if out.planHit {
		j.events.emit(JobEvent{Type: EvPlanCacheHit})
	} else {
		j.events.emit(JobEvent{Type: EvPlanCacheMiss})
	}

	pl := tmpl.Plan.Clone()
	var cluster cloud.Cluster
	if j.dep != nil {
		cluster = j.dep.Cluster
		out.cluster = cluster.String()
		if err := j.dep.Apply(pl); err != nil {
			return out, err
		}
	} else {
		cluster, err = cloud.NewCluster(s.machine, req.Nodes, req.Slots)
		if err != nil {
			return out, err
		}
		pl.AutoSplit(cluster.TotalSlots())
		out.cluster = cluster.String()
	}
	opts, err := req.ExecOptions(cluster)
	if err != nil {
		return out, err
	}

	var inner obs.Recorder = obs.Nop()
	if req.Trace || req.Critpath || req.Metrics {
		out.trace = obs.NewTrace()
		inner = out.trace
	}
	opts.Workers = s.cfg.Workers
	opts.Recorder = &runRecorder{inner: inner, log: j.events}
	if req.CheckpointEvery > 0 {
		// Checkpointing jobs always run with Resume: a first execution
		// finds no checkpoint and runs from scratch; a re-execution (a
		// job re-admitted after a server crash, or an identical
		// resubmission) fast-forwards past the jobs its newest valid
		// checkpoint covers, bit-identically.
		opts.CheckpointStore = s.ckptStore
		opts.Resume = true
	}
	if !req.Materialize {
		// A virtual run replays the phases an earlier run of the template
		// computed at the same splits, and records the rest for the next.
		opts.Backend = tmpl.Memo
	}
	j.events.emit(JobEvent{Type: EvRunning, Cluster: out.cluster, Nodes: cluster.Nodes})
	out.res, err = s.sess.ExecutePlan(pl, cluster, opts)
	return out, err
}

// Cancel cancels a queued job. Running and terminal jobs are refused.
func (s *Server) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.store.get(id)
	var err error
	switch {
	case !ok:
		err = &apiError{code: http.StatusNotFound, msg: fmt.Sprintf("no job %s", id)}
	case j.status.State == StateRunning:
		err = &apiError{code: http.StatusConflict, msg: fmt.Sprintf("job %s is running and cannot be interrupted", id)}
	default:
		err = s.transition(j, causeCancel, nil)
	}
	if err != nil {
		s.mu.Unlock()
		return JobStatus{}, err
	}
	st := j.status
	s.mu.Unlock()
	// The answer waits for the cancel's record, outside the lock.
	if err := s.flushJournal(); err != nil {
		return JobStatus{}, err
	}
	return st, nil
}

// Status returns a job's status snapshot.
func (s *Server) Status(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.store.get(id); ok {
		return s.statusOf(j), true
	}
	return JobStatus{}, false
}

// TenantStats is one tenant's row of the server's stats: /v1/stats serves
// it, the dashboard's tenant table renders it and the per-tenant gauges are
// set from it.
type TenantStats struct {
	Tenant  string  `json:"tenant"`
	Weight  float64 `json:"weight"`
	Service float64 `json:"service_slot_seconds"`
	// Debt is the fair-share debt: the tenant's normalized service
	// (service/weight) above the best-served row's. The scheduler favors
	// low debt, so a large value means the tenant has been consuming ahead
	// of its share.
	Debt float64 `json:"fair_share_debt"`
	// Job counts by state, and the largest wait, over retained jobs.
	Submitted int     `json:"submitted"`
	Completed int     `json:"completed"`
	Failed    int     `json:"failed"`
	Canceled  int     `json:"canceled"`
	Running   int     `json:"running"`
	Queued    int     `json:"queued"`
	MaxWait   float64 `json:"max_queue_wait_sec"`
	// Quantiles (seconds) of the tenant's cumulond_queue_wait_seconds and
	// cumulond_e2e_seconds histograms since the server started.
	QueueP50 float64 `json:"queue_p50_sec"`
	QueueP95 float64 `json:"queue_p95_sec"`
	E2EP50   float64 `json:"e2e_p50_sec"`
	E2EP95   float64 `json:"e2e_p95_sec"`
	E2EP99   float64 `json:"e2e_p99_sec"`
}

// Stats is the GET /v1/stats payload.
type Stats struct {
	UptimeSec  float64       `json:"uptime_sec"`
	Machine    string        `json:"machine"`
	Capacity   int           `json:"capacity_nodes"`
	FreeNodes  int           `json:"free_nodes"`
	Running    int           `json:"running"`
	QueueDepth int           `json:"queue_depth"`
	Cache      CacheStats    `json:"cache"`
	JobsPruned int64         `json:"jobs_pruned"`
	Tenants    []TenantStats `json:"tenants"`
}

// stats assembles the server's point-in-time view, the one source of
// /v1/stats, /debug/dash and the /metrics gauges. It has one row per tenant
// with a retained job or a latency series, sorted by tenant; a retained
// job's tenant gets its series here, so a row, once shown, stays for the
// server's life, as its gauge series do. Callers hold s.mu.
func (s *Server) stats() Stats {
	for _, id := range s.store.order {
		s.tenantHist(s.store.jobs[id].req.Tenant)
	}
	names := obs.SortedKeys(s.tenantHists)
	st := Stats{
		UptimeSec: s.now(), Machine: s.cfg.Machine,
		Capacity: s.cfg.Nodes, FreeNodes: s.freeNodes,
		Running: s.running, QueueDepth: s.sched.Depth(),
		Cache: s.cache.Stats(), JobsPruned: s.store.pruned,
		Tenants: make([]TenantStats, len(names)),
	}
	row := make(map[string]*TenantStats, len(names))
	minNorm := math.Inf(1)
	for i, n := range names {
		ts, t := s.tenantHists[n], &st.Tenants[i]
		*t = TenantStats{
			Tenant: n, Weight: s.sched.Weight(n), Service: s.sched.Service(n),
			QueueP50: ts.queue.Quantile(0.5), QueueP95: ts.queue.Quantile(0.95),
			E2EP50: ts.e2e.Quantile(0.5), E2EP95: ts.e2e.Quantile(0.95), E2EP99: ts.e2e.Quantile(0.99),
		}
		t.Debt = t.Service / t.Weight // less the smallest, below
		minNorm = min(minNorm, t.Debt)
		row[n] = t
	}
	for i := range st.Tenants {
		st.Tenants[i].Debt -= minNorm
	}
	for _, id := range s.store.order {
		j := s.store.jobs[id]
		t := row[j.req.Tenant]
		t.Submitted++
		switch j.status.State {
		case StateSucceeded:
			t.Completed++
		case StateFailed:
			t.Failed++
		case StateCanceled:
			t.Canceled++
		case StateRunning:
			t.Running++
		case StateQueued:
			t.Queued++
		}
		if w := j.status.QueueWaitSec; j.status.State != StateQueued && w > t.MaxWait {
			t.MaxWait = w
		}
	}
	return st
}
