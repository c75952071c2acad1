// Package plan lowers Cumulon programs (package lang) into executable
// physical plans: DAGs of jobs over tiled matrices.
//
// The execution model is the paper's: every job is a *map-only,
// multi-input* job. A task reads exactly the tiles it needs from any
// number of stored matrices and writes output tiles straight back to the
// DFS — there is no shuffle, sort or reduce phase. Two job kinds exist:
//
//   - Map jobs evaluate a fused tree of element-wise operators (add, sub,
//     Hadamard product/division, scaling, scalar functions, transposed
//     reads) tile-by-tile over any number of inputs.
//
//   - Mul jobs compute a tiled matrix product C = prologueL(A) ×
//     prologueR(B) with an optional fused element-wise epilogue that may
//     reference additional input matrices at the output coordinates. The
//     product is parallelized by a split (ci, cj, ck) of the tile-space
//     cube; ck > 1 trades redundant input reads for a subsequent
//     aggregation pass over partial results (Cumulon's replacement for the
//     MapReduce shuffle).
//
// Logical rewrites (transpose pushdown, scalar folding, matrix-chain
// reordering) run before job cutting; see rewrite.go. Job cutting and
// operator fusion live in lower.go.
package plan

import (
	"fmt"

	"cumulon/internal/lang"
	"cumulon/internal/store"
)

// MMVar is the reserved leaf name that an epilogue expression uses to
// refer to the matrix-product result inside a Mul job.
const MMVar = "$mm"

// JobKind distinguishes the two physical job templates.
type JobKind int

const (
	// MapKind is a fused element-wise job.
	MapKind JobKind = iota
	// MulKind is a tiled matrix-multiply job with fused prologues/epilogue.
	MulKind
)

func (k JobKind) String() string {
	if k == MulKind {
		return "mul"
	}
	return "map"
}

// LeafRef identifies one stored-matrix input of a job. Transposed leaves
// are read through Cumulon's transposed access path: tile (i, j) of Aᵀ is
// the in-memory transpose of tile (j, i) of A, so no transpose job is ever
// materialized.
type LeafRef struct {
	Meta       store.Meta
	Transposed bool
}

// Split describes how a job's work is partitioned into tasks. For a Mul
// job computing an (I × J × K)-tile product cube, the cube is cut into
// CI × CJ × CK chunks, one task each. For a Map job over an (I × J) output
// tile grid, only CI and CJ apply (CK must be 1).
type Split struct {
	CI, CJ, CK int
}

// Tasks returns the number of tasks the split induces.
func (s Split) Tasks() int { return s.CI * s.CJ * s.CK }

func (s Split) String() string { return fmt.Sprintf("(%d,%d,%d)", s.CI, s.CJ, s.CK) }

// Validate checks the split against a job: its tile grid, and that only an
// unmasked product cuts K (Phases).
func (s Split) Validate(j *Job) error {
	if s.CI < 1 || s.CJ < 1 || s.CK < 1 {
		return fmt.Errorf("plan: split %v has non-positive factors", s)
	}
	if s.CI > j.ITiles() || s.CJ > j.JTiles() {
		return fmt.Errorf("plan: split %v exceeds tile grid %dx%d", s, j.ITiles(), j.JTiles())
	}
	if j.Kind == MapKind && s.CK != 1 {
		return fmt.Errorf("plan: map job split %v must have ck=1", s)
	}
	if j.MaskLeaf != "" && s.CK != 1 {
		return fmt.Errorf("plan: masked multiply cannot k-split (split %v)", s)
	}
	if s.CK > j.KTiles() {
		return fmt.Errorf("plan: split %v exceeds k tiles %d", s, j.KTiles())
	}
	return nil
}

// Job is one physical job of a plan.
type Job struct {
	ID   int
	Name string // human-readable label, e.g. "s2/H#1:mul"
	Kind JobKind

	// Out is the matrix this job materializes.
	Out store.Meta

	// Leaves binds leaf variable names used in the job's expressions to
	// stored matrices.
	Leaves map[string]LeafRef

	// Expr is the fused element-wise tree of a Map job, over Leaves.
	Expr lang.Expr

	// LExpr and RExpr are the prologue trees of a Mul job, over Leaves;
	// their product is the job's core. Epilogue, if non-nil, is applied to
	// the product tile with MMVar bound to it and any other leaves read at
	// the output coordinates.
	LExpr, RExpr lang.Expr
	Epilogue     lang.Expr

	// Prog is the compiled tape of Expr (Map jobs); LProg and RProg are
	// the compiled prologue tapes and EpiProg the compiled epilogue tape
	// of a Mul job. Compile populates them as a finalize pass; the compute
	// layer executes the tapes in a single fused pass per tile, and cost
	// estimation reads their leaf lists and op counts; the tree forms
	// above remain for the differential-oracle interpreter.
	Prog, LProg, RProg, EpiProg *TileProgram

	// MaskLeaf, when non-empty, names the sparse pattern leaf of a masked
	// multiply: the job computes the product only at the pattern's stored
	// positions and writes a sparse output. Masked jobs cannot k-split
	// (Phases) and carry no epilogue.
	MaskLeaf string

	// Split is the task decomposition; engines and the optimizer may
	// overwrite it before execution.
	Split Split

	// Deps are the job IDs whose outputs this job reads.
	Deps []int

	// KSize is the shared (inner) dimension of a Mul job in elements.
	KSize int

	// partials is the number of the job's first k-split partial, the same
	// for every job (Compile).
	partials int32
}

// ITiles returns the output tile-grid row count.
func (j *Job) ITiles() int { return j.Out.TileRows() }

// JTiles returns the output tile-grid column count.
func (j *Job) JTiles() int { return j.Out.TileCols() }

// KTiles returns the inner-dimension tile count of a Mul job (1 for Map).
func (j *Job) KTiles() int {
	if j.Kind != MulKind {
		return 1
	}
	return (j.KSize + j.Out.TileSize - 1) / j.Out.TileSize
}

func (j *Job) String() string {
	return fmt.Sprintf("job %d %s [%s] -> %s (%dx%d tiles, split %v)",
		j.ID, j.Name, j.Kind, j.Out.Name, j.ITiles(), j.JTiles(), j.Split)
}

// Plan is a physical plan: a dependency-ordered list of jobs plus the
// bindings of program inputs and outputs to stored matrices.
type Plan struct {
	Program  *lang.Program
	TileSize int
	Jobs     []*Job
	// Inputs lists the stored matrices the program expects to pre-exist.
	Inputs []store.Meta
	// Outputs maps each program output variable to its final stored matrix.
	Outputs map[string]store.Meta
	// Names lists the plan's matrices by number: Names[m.Num] is m.Name for
	// every stored matrix the plan names but the k-split partials, which
	// take the numbers from len(Names) up (Phase.Partials). Clones share it.
	Names []string
	// Rewrites reports what the cross-statement CSE/hoisting pass removed
	// from the program before lowering (nil when the pass was disabled or
	// found nothing).
	Rewrites *RewriteReport
	// Boundaries are the program's iteration boundaries projected onto
	// the job list, in job order: a checkpoint may be taken after
	// LastJob completes. Empty when the program declares no boundaries.
	Boundaries []Boundary
}

// Boundary is one checkpointable position of a plan: the state after
// the first Stmt statements of the (possibly CSE-rewritten) program,
// reached when job LastJob (and all before it) has completed.
type Boundary struct {
	// Stmt counts completed program statements at the boundary.
	Stmt int
	// LastJob is the highest job ID completed at the boundary.
	LastJob int
}

// TopoOrder returns the jobs in a valid execution order (they are emitted
// in dependency order by construction; this verifies and returns them),
// having checked every job's split.
func (p *Plan) TopoOrder() ([]*Job, error) {
	done := map[int]bool{}
	for _, j := range p.Jobs {
		for _, d := range j.Deps {
			if !done[d] {
				return nil, fmt.Errorf("plan: job %d depends on %d which is not yet executed", j.ID, d)
			}
		}
		if err := j.Split.Validate(j); err != nil {
			return nil, fmt.Errorf("%s: %w", j, err)
		}
		done[j.ID] = true
	}
	return p.Jobs, nil
}

// String renders a human-readable plan summary.
func (p *Plan) String() string {
	s := fmt.Sprintf("plan(%s): %d jobs, tile=%d\n", p.Program.Name, len(p.Jobs), p.TileSize)
	for _, j := range p.Jobs {
		s += "  " + j.String() + "\n"
	}
	return s
}
