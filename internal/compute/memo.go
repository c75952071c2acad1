package compute

import (
	"sync"
	"unsafe"

	"cumulon/internal/plan"
)

// Memo is a Backend that computes each virtual task of a compiled plan once
// for all runs of the plan's clones: a virtual task's result depends only on
// the plan and its job's split. It belongs to whoever owns the template
// (cumulond's plan-cache entry, model.Suite) and goes with it.
//
// RunBatch looks a phase up once, by job ID, phase kind and Env.TileOps, and
// serves it if it was recorded under the job's current split. Otherwise it
// computes the batch sequentially and records it if the engine fetched every
// result without an error. A job's entry holds one split, which a record
// under another replaces, so a memo retains at most one run's traces.
// Materialized batches are computed and never recorded.
//
// A Memo is safe for concurrent use. The Results it returns are shared and
// must not be written.
type Memo struct {
	mu    sync.Mutex
	jobs  map[int]*memoJob
	bytes int64
}

// memoJob is one job's recorded phases under one split, by phase kind and
// TileOps, and the bytes they retain.
type memoJob struct {
	split  plan.Split
	phases [len(phaseFns)][2]*served
	bytes  int64
}

// served is a recorded phase: its results, and the fetch that serves them,
// made once as the phase is recorded, so that serving it allocates nothing.
type served struct {
	res   []*Result
	fetch func(int) (*Result, error)
}

// sequential computes what a memo does not serve.
var sequential = NewSequential()

// Bytes returns what the recorded results retain: each Result and the
// capacity of its trace and kernel statistics.
func (m *Memo) Bytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytes
}

// phase returns where job j's entry records its phase of kind k under
// TileOps ops; with create, it makes the entry or replaces one under another
// split. m.mu must be held.
func (m *Memo) phase(j *plan.Job, k plan.PhaseKind, ops, create bool) **served {
	mj := m.jobs[j.ID]
	if mj == nil || mj.split != j.Split {
		if !create {
			return nil
		}
		if mj != nil {
			m.bytes -= mj.bytes
		}
		mj = &memoJob{split: j.Split}
		if m.jobs == nil {
			m.jobs = make(map[int]*memoJob)
		}
		m.jobs[j.ID] = mj
	}
	i := 0
	if ops {
		i = 1
	}
	return &mj.phases[k][i]
}

func (m *Memo) RunBatch(env Env, j *plan.Job, ph *plan.Phase) (func(int) (*Result, error), func()) {
	n := ph.Tasks()
	if n == 0 || !env.Virtual {
		return sequential.RunBatch(env, j, ph)
	}
	m.mu.Lock()
	var s *served
	if p := m.phase(j, ph.Kind, env.TileOps, false); p != nil {
		s = *p
	}
	m.mu.Unlock()
	if s != nil && len(s.res) == n {
		return s.fetch, func() {}
	}
	fetch, release := sequential.RunBatch(env, j, ph)
	res := make([]*Result, n)
	return func(i int) (*Result, error) {
			r, err := fetch(i)
			res[i] = r
			return r, err
		}, func() {
			release()
			n := int64(len(res)) * int64(unsafe.Sizeof(res[0])+unsafe.Sizeof(Result{}))
			for _, r := range res {
				if r == nil {
					return
				}
				n += int64(cap(r.Ops))*int64(unsafe.Sizeof(Op{})) + int64(cap(r.Kernels))*int64(unsafe.Sizeof(KernelStat{}))
			}
			m.mu.Lock()
			defer m.mu.Unlock()
			// A phase a concurrent run recorded first holds the same results.
			if p := m.phase(j, ph.Kind, env.TileOps, true); *p == nil {
				*p = &served{res: res, fetch: func(i int) (*Result, error) { return res[i], nil }}
				m.jobs[j.ID].bytes += n
				m.bytes += n
			}
		}
}
