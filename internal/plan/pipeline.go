package plan

import (
	"fmt"
	"strings"

	"cumulon/internal/lang"
)

// Compiled tile pipelines.
//
// A fused element-wise tree (a Map job's Expr, a Mul job's prologues and
// epilogue) is compiled at plan time into a TileProgram: a flat post-order
// op tape over numbered leaf slots plus the MMVar placeholder. The compute
// layer executes the tape in a single pass over the output tile — every
// leaf tile is read exactly once, no per-node intermediate tiles are
// materialized, and the destination comes from the compute layer's tile pool.
// Compiling here (instead of interpreting the tree per tile) also moves
// structural validation to lowering time: unbound leaves, residual
// transposes and unknown Apply function names are plan errors, not
// per-tile runtime failures.
//
// The tape is constructed so that executing it reproduces the retained
// tree-walking interpreter (compute.Ctx.evalTile) *exactly*, including the
// accounting the engines replay: leaf slots are numbered by first
// occurrence in post-order, so reading slots 0, 1, 2, … issues the same
// read trace the interpreter's depth-first walk does, and charging flops
// per tape instruction in tape order reproduces the interpreter's
// post-order kernel-stat sequence ("zip"/"scale"/"apply", first-use
// ordered). The golden-trace tests hold both evaluators to byte-identical
// traces.

// TileOp is one opcode of a compiled tile pipeline.
type TileOp uint8

const (
	// TileLeaf pushes leaf slot Arg.
	TileLeaf TileOp = iota
	// TileMM pushes the bound matrix-product tile (MMVar).
	TileMM
	// TileAdd pops two operands and pushes their element-wise sum.
	TileAdd
	// TileSub pops two operands and pushes their element-wise difference.
	TileSub
	// TileMul pops two operands and pushes their Hadamard product.
	TileMul
	// TileDiv pops two operands and pushes their element-wise quotient.
	TileDiv
	// TileScale pops one operand and pushes it scaled by Scale.
	TileScale
	// TileApply pops one operand and pushes lang.FuncTable[Arg] applied
	// element-wise.
	TileApply
)

// elemTileOps is the opcode of each element-wise operator.
var elemTileOps = [lang.NumElemOps]TileOp{lang.OpAdd: TileAdd, lang.OpSub: TileSub, lang.OpMul: TileMul, lang.OpDiv: TileDiv}

func (op TileOp) String() string {
	switch op {
	case TileLeaf:
		return "leaf"
	case TileMM:
		return "mm"
	case TileAdd:
		return "add"
	case TileSub:
		return "sub"
	case TileMul:
		return "mul"
	case TileDiv:
		return "div"
	case TileScale:
		return "scale"
	case TileApply:
		return "apply"
	}
	return "?"
}

// KernelKind returns the kernel-stat label the retained interpreter
// charges for this op ("" for operand pushes, which cost nothing).
func (op TileOp) KernelKind() string {
	switch op {
	case TileAdd, TileSub, TileMul, TileDiv:
		return "zip"
	case TileScale:
		return "scale"
	case TileApply:
		return "apply"
	}
	return ""
}

// TileInstr is one instruction of the tape.
type TileInstr struct {
	Op TileOp
	// Arg is the leaf slot of TileLeaf, or the lang.FuncTable index of
	// TileApply.
	Arg int
	// Scale is the constant factor of TileScale.
	Scale float64
}

// TileProgram is a compiled fused element-wise pipeline: a post-order op
// tape evaluated with an operand stack, once per output element (the
// executor vectorizes over chunks of the tile).
type TileProgram struct {
	// Code is the tape, in post-order of the source tree.
	Code []TileInstr
	// Leaves names the leaf variable of each slot, numbered by first
	// occurrence in post-order (slot order == the interpreter's read
	// order).
	Leaves []string
	// Refs binds each leaf slot to its stored matrix (parallel to
	// Leaves): the distinct leaf references of the source tree, recorded
	// once here so cost estimation and locality hints never re-walk it.
	Refs []LeafRef
	// MaxStack is the operand-stack depth the tape needs.
	MaxStack int
	// NeedsMM reports whether the tape references the MMVar placeholder
	// (epilogue programs do; Map-job programs must not).
	NeedsMM bool
}

// Ops returns the number of element-wise operator instructions (the
// per-element flop count of the pipeline).
func (p *TileProgram) Ops() int {
	n := 0
	for _, ins := range p.Code {
		if ins.Op.KernelKind() != "" {
			n++
		}
	}
	return n
}

// String renders the tape for diagnostics.
func (p *TileProgram) String() string {
	var b strings.Builder
	for i, ins := range p.Code {
		if i > 0 {
			b.WriteByte(' ')
		}
		switch ins.Op {
		case TileLeaf:
			fmt.Fprintf(&b, "%s", p.Leaves[ins.Arg])
		case TileScale:
			fmt.Fprintf(&b, "scale(%g)", ins.Scale)
		case TileApply:
			fmt.Fprintf(&b, "%s", lang.FuncNames[ins.Arg])
		default:
			b.WriteString(ins.Op.String())
		}
	}
	return b.String()
}

// CompileTileProgram compiles a fused element-wise tree into a tape over
// the job's leaf bindings. It validates the tree's structure: every Var
// must be a bound leaf (or MMVar), transposes must have been pushed into
// the leaf bindings, matrix products must have been extracted by the
// lowerer, and Apply function names must be in the closed set — all of
// which would otherwise surface as per-tile runtime errors deep inside a
// task.
func CompileTileProgram(e lang.Expr, leaves map[string]LeafRef) (*TileProgram, error) {
	p := &TileProgram{}
	slots := map[string]int{}
	depth, maxDepth := 0, 0
	push := func(ins TileInstr, pop int) {
		depth += 1 - pop
		if depth > maxDepth {
			maxDepth = depth
		}
		p.Code = append(p.Code, ins)
	}
	var emit func(e lang.Expr) error
	emit = func(e lang.Expr) error {
		switch x := e.(type) {
		case lang.Var:
			if x.Name == MMVar {
				p.NeedsMM = true
				push(TileInstr{Op: TileMM}, 0)
				return nil
			}
			ref, ok := leaves[x.Name]
			if !ok {
				return fmt.Errorf("plan: compile pipeline: unbound leaf %s", x.Name)
			}
			slot, ok := slots[x.Name]
			if !ok {
				slot = len(p.Leaves)
				slots[x.Name] = slot
				p.Leaves = append(p.Leaves, x.Name)
				p.Refs = append(p.Refs, ref)
			}
			push(TileInstr{Op: TileLeaf, Arg: slot}, 0)
			return nil
		case lang.Elem:
			if err := emit(x.L); err != nil {
				return err
			}
			if err := emit(x.R); err != nil {
				return err
			}
			push(TileInstr{Op: elemTileOps[x.Op]}, 2)
			return nil
		case lang.Scale:
			if err := emit(x.X); err != nil {
				return err
			}
			push(TileInstr{Op: TileScale, Scale: x.S}, 1)
			return nil
		case lang.Apply:
			fi := lang.FuncIndex(x.Fn)
			if fi < 0 {
				return fmt.Errorf("plan: compile pipeline: unknown function %s", x.Fn)
			}
			if err := emit(x.X); err != nil {
				return err
			}
			push(TileInstr{Op: TileApply, Arg: fi}, 1)
			return nil
		case lang.Transpose:
			return fmt.Errorf("plan: compile pipeline: residual transpose %s (not pushed to a leaf)", x)
		case lang.MatMul:
			return fmt.Errorf("plan: compile pipeline: unextracted matrix product %s", x)
		default:
			return fmt.Errorf("plan: compile pipeline: unsupported node %T", e)
		}
	}
	if err := emit(e); err != nil {
		return nil, err
	}
	p.MaxStack = maxDepth
	return p, nil
}

// compilePrograms compiles the fused pipelines of every job in the plan.
// It runs as a finalize pass after all jobs are built (lowerMask mutates
// jobs after addJob) so the tapes see the final leaf bindings.
func (p *Plan) compilePrograms() error {
	for _, j := range p.Jobs {
		var err error
		switch j.Kind {
		case MapKind:
			if j.Prog, err = CompileTileProgram(j.Expr, j.Leaves); err != nil {
				return fmt.Errorf("job %d %s: %w", j.ID, j.Name, err)
			}
			if j.Prog.NeedsMM {
				return fmt.Errorf("job %d %s: map expression references %s", j.ID, j.Name, MMVar)
			}
		case MulKind:
			if j.LProg, err = CompileTileProgram(j.LExpr, j.Leaves); err != nil {
				return fmt.Errorf("job %d %s: left prologue: %w", j.ID, j.Name, err)
			}
			if j.RProg, err = CompileTileProgram(j.RExpr, j.Leaves); err != nil {
				return fmt.Errorf("job %d %s: right prologue: %w", j.ID, j.Name, err)
			}
			if j.LProg.NeedsMM || j.RProg.NeedsMM {
				return fmt.Errorf("job %d %s: prologue references %s", j.ID, j.Name, MMVar)
			}
			if j.Epilogue != nil {
				if j.EpiProg, err = CompileTileProgram(j.Epilogue, j.Leaves); err != nil {
					return fmt.Errorf("job %d %s: epilogue: %w", j.ID, j.Name, err)
				}
				if !j.EpiProg.NeedsMM {
					return fmt.Errorf("job %d %s: epilogue never references %s", j.ID, j.Name, MMVar)
				}
			}
		}
	}
	return nil
}
