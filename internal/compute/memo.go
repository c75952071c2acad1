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
	phases [len(phaseFns)][2][]*Result
	bytes  int64
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

// phase returns where job j's entry records t's phase; with create, it
// makes the entry or replaces one under another split. m.mu must be held.
func (m *Memo) phase(t *Task, create bool) *[]*Result {
	j := m.jobs[t.Job.ID]
	if j == nil || j.split != t.Job.Split {
		if !create {
			return nil
		}
		if j != nil {
			m.bytes -= j.bytes
		}
		j = &memoJob{split: t.Job.Split}
		if m.jobs == nil {
			m.jobs = make(map[int]*memoJob)
		}
		m.jobs[t.Job.ID] = j
	}
	ops := 0
	if t.Env.TileOps {
		ops = 1
	}
	return &j.phases[t.Phase.Kind][ops]
}

func (m *Memo) RunBatch(ts []Task) (func(int) (*Result, error), func()) {
	if len(ts) == 0 || !ts[0].Env.Virtual {
		return sequential.RunBatch(ts)
	}
	t := &ts[0]
	m.mu.Lock()
	var res []*Result
	if p := m.phase(t, false); p != nil {
		res = *p
	}
	m.mu.Unlock()
	if len(res) == len(ts) {
		return func(i int) (*Result, error) { return res[i], nil }, func() {}
	}
	fetch, release := sequential.RunBatch(ts)
	res = make([]*Result, len(ts))
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
			if p := m.phase(t, true); *p == nil {
				*p = res
				m.jobs[t.Job.ID].bytes += n
				m.bytes += n
			}
		}
}
