package compute

// The pool-mode hook, for the external test package (pool_engine_test.go
// drives whole engine runs under it); production code cannot reach it.
type PoolMode = poolMode

const (
	PoolReuse  = poolReuse
	PoolPoison = poolPoison
	PoolOff    = poolOff
)

func SetPoolMode(m PoolMode) PoolMode { return setPoolMode(m) }

// setPoolMode installs m and returns the mode it replaced.
func setPoolMode(m poolMode) poolMode { return poolMode(poolModeNow.Swap(int32(m))) }

// SetInputHook installs f (nil removes it) to see every decoded form a run's
// Inputs keep — kind "dense", "csr" or "transpose" — as they keep it and, kept
// false, as they recycle it. Set it only while no engine runs.
func SetInputHook(f func(kind string, form any, kept bool)) {
	if f == nil {
		inputHook = nil
		return
	}
	inputHook = func(e *input, kept bool) {
		if e.dense != nil {
			f("dense", e.dense, kept)
		}
		if e.trans != nil {
			f("transpose", e.trans, kept)
		}
		if e.csr != nil {
			f("csr", e.csr, kept)
		}
	}
}

// MemoHolds counts the phases a memo has recorded and the task results in
// them.
func MemoHolds(m *Memo) (phases, tasks int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, j := range m.jobs {
		for _, byOps := range j.phases {
			for _, res := range byOps {
				if res != nil {
					phases++
					tasks += len(res)
				}
			}
		}
	}
	return phases, tasks
}
