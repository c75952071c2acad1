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
