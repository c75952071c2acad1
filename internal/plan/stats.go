package plan

// PhaseStats describes one scheduling phase of a job: a set of tasks with
// (average) per-task work. Mul jobs with ck > 1 have two phases — the
// multiply tasks producing partial results, then the aggregation tasks
// summing them; all other jobs have one.
type PhaseStats struct {
	Tasks            int
	FlopsPerTask     int64
	ReadBytesPerTask int64
	// WriteBytesPerTask counts logical output bytes; replication traffic
	// is layered on by the engine/cost model, which knows the DFS factor.
	WriteBytesPerTask int64
}

// JobStats aggregates the estimated work of a job under its current split.
type JobStats struct {
	Phases          []PhaseStats
	TotalFlops      int64
	TotalReadBytes  int64
	TotalWriteBytes int64
}

// EstimateJob computes the work profile of a job under its current split.
// The same estimates drive the virtual clock of the execution engine and
// the predictions of the optimizer's simulator, so prediction error comes
// only from the fitted task-time models and scheduling nondeterminism —
// mirroring how the paper's models are calibrated against a real engine.
func EstimateJob(j *Job) JobStats {
	switch j.Kind {
	case MulKind:
		return estimateMul(j)
	default:
		return estimateMap(j)
	}
}

func estimateMap(j *Job) JobStats {
	tasks := j.Split.CI * j.Split.CJ
	elems := int64(j.Out.Rows) * int64(j.Out.Cols)
	flops := int64(j.Prog.Ops()) * elems
	return singlePhase(tasks, flops, j.Prog.estLeafBytes(), j.Out.EstBytes())
}

func estimateMul(j *Job) JobStats {
	ci, cj, ck := j.Split.CI, j.Split.CJ, j.Split.CK
	m, n, k := int64(j.Out.Rows), int64(j.Out.Cols), int64(j.KSize)

	// Core product flops; a bare sparse left operand uses the sparse
	// kernel whose work scales with the nonzero count, and a masked
	// multiply computes only at the pattern's stored positions.
	coreFlops := 2 * m * k * n
	if ref, ok := bareLeaf(j.LExpr, j.Leaves); ok && ref.Meta.Sparse {
		coreFlops = int64(2 * ref.Meta.EffDensity() * float64(m) * float64(k) * float64(n))
	}
	if maskRef, ok := j.Leaves[j.MaskLeaf]; ok {
		coreFlops = int64(2 * maskRef.Meta.EffDensity() * float64(m) * float64(k) * float64(n))
	}
	// Prologue element-wise work applies to every (chunk-replicated) read
	// of the operands.
	lOps, rOps := int64(j.LProg.Ops()), int64(j.RProg.Ops())
	prologueFlops := lOps*m*k*int64(cj) + rOps*k*n*int64(ci)

	lBytes, rBytes := j.LProg.estLeafBytes(), j.RProg.estLeafBytes()
	var epiBytes, epiOps int64
	if j.Epilogue != nil {
		epiOps = int64(j.EpiProg.Ops())
		epiBytes = j.EpiProg.estLeafBytes()
	}

	outBytes := j.Out.EstBytes()
	phase1Tasks := ci * cj * ck
	read1 := int64(cj)*lBytes + int64(ci)*rBytes

	if ck == 1 {
		flops := coreFlops + prologueFlops + epiOps*m*n
		read := read1 + epiBytes
		return singlePhase(phase1Tasks, flops, read, outBytes)
	}

	// Partial-result path: phase 1 writes ck dense partials, phase 2 sums
	// them (ck-1 adds per element) and applies the epilogue.
	partialBytes := int64(ck) * (m*n*8 + 16*int64(j.ITiles())*int64(j.JTiles()))
	st := JobStats{}
	st.addPhase(phase1Tasks, coreFlops+prologueFlops, read1, partialBytes)
	aggTasks := ci * cj
	aggFlops := (int64(ck)-1)*m*n + epiOps*m*n
	st.addPhase(aggTasks, aggFlops, partialBytes+epiBytes, outBytes)
	return st
}

func singlePhase(tasks int, flops, read, write int64) JobStats {
	st := JobStats{}
	st.addPhase(tasks, flops, read, write)
	return st
}

func (st *JobStats) addPhase(tasks int, flops, read, write int64) {
	if tasks < 1 {
		tasks = 1
	}
	st.Phases = append(st.Phases, PhaseStats{
		Tasks:             tasks,
		FlopsPerTask:      flops / int64(tasks),
		ReadBytesPerTask:  read / int64(tasks),
		WriteBytesPerTask: write / int64(tasks),
	})
	st.TotalFlops += flops
	st.TotalReadBytes += read
	st.TotalWriteBytes += write
}

// EstTaskMemBytes estimates the peak per-task memory of a job under its
// split: the input chunks plus the output chunk a task holds at once. The
// optimizer uses it to reject splits that overflow the machine's per-slot
// memory.
func EstTaskMemBytes(j *Job) int64 {
	ts := int64(j.Out.TileSize)
	tileBytes := ts * ts * 8
	ib := int64(ceilDiv(j.ITiles(), j.Split.CI))
	jb := int64(ceilDiv(j.JTiles(), j.Split.CJ))
	if j.Kind == MulKind {
		kb := int64(ceilDiv(j.KTiles(), j.Split.CK))
		// One L tile row-strip, one R tile column-strip, and the output
		// chunk are resident; prologue/epilogue tiles are transient.
		return (ib*kb + kb*jb + ib*jb) * tileBytes
	}
	leaves := int64(len(j.Prog.Refs))
	return (leaves + 1) * ib * jb * tileBytes
}

// estLeafBytes sums the estimated stored size of the pipeline's distinct
// leaves.
func (p *TileProgram) estLeafBytes() int64 {
	var n int64
	for _, ref := range p.Refs {
		n += ref.Meta.EstBytes()
	}
	return n
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
