package plan

import "cumulon/internal/store"

// TaskWork is the exact work profile of one task under a job's split,
// mirroring what the execution engine will account when it runs the task:
// flops (core product, prologue and epilogue operators), bytes read
// (leaf tiles, deduplicated per task), and bytes written.
type TaskWork struct {
	Flops      int64
	ReadBytes  int64
	WriteBytes int64
}

// PhaseProfile is the work of one scheduling phase of a job under its
// split, in class form. The spans of a split axis have at most three
// shapes — ⌊n/p⌋ tiles, ⌈n/p⌉ tiles, and the last span, which alone can end
// in a ragged tile — so a phase's tasks fall into at most 27 classes of
// identical work. The work is computed once per class; the simulator
// prices each class once per deployment and schedules the tasks by class.
type PhaseProfile struct {
	// Work is the work of one task of each class.
	Work []TaskWork
	// Class is the class of every task, in the task order the engine
	// constructs.
	Class []uint8
}

// TaskProfiles enumerates the per-phase, per-task work of a job under its
// current split, in the same task order the engine constructs. Because
// chunk sizes are uneven when splits do not divide the tile grid, per-task
// profiles capture the makespan effects that averaged statistics miss.
func TaskProfiles(j *Job) [][]TaskWork {
	phases := Profile(j)
	out := make([][]TaskWork, len(phases))
	for i, ph := range phases {
		out[i] = make([]TaskWork, len(ph.Class))
		for t, c := range ph.Class {
			out[i][t] = ph.Work[c]
		}
	}
	return out
}

// ProfileMemo memoizes Profile per (job, split). Profiles do not depend
// on the deployment, so one optimizer search — which sweeps the same few
// hundred (job, split) pairs for every deployment candidate — derives each
// once. Entries are keyed by the job's compiled tape, which Clone shares:
// clones of one plan hit each other's entries and jobs of different plans
// never collide. The zero value is ready to use. A memo belongs to one
// goroutine; it must not hang off a Plan or Job, which concurrent
// executions share.
type ProfileMemo struct {
	m map[profileKey][]PhaseProfile
}

type profileKey struct {
	tape  *TileProgram
	split Split
}

// Profile returns Profile(j), computing it on first use.
func (c *ProfileMemo) Profile(j *Job) []PhaseProfile {
	k := profileKey{j.Prog, j.Split}
	if j.Kind == MulKind {
		k.tape = j.LProg
	}
	ph, ok := c.m[k]
	if !ok {
		if c.m == nil {
			c.m = map[profileKey][]PhaseProfile{}
		}
		ph = Profile(j)
		c.m[k] = ph
	}
	return ph
}

// Span is a half-open chunk [Lo, Hi) of a tile axis.
type Span struct{ Lo, Hi int }

// Len returns the number of tiles in the span.
func (s Span) Len() int { return s.Hi - s.Lo }

// PartitionAxis cuts n tile indices into parts balanced chunks: the spans
// a split assigns to tasks, for the work profiles here and for the engine.
func PartitionAxis(n, parts int) []Span {
	if parts > n {
		parts = n
	}
	out := make([]Span, 0, parts)
	for p := 0; p < parts; p++ {
		lo := p * n / parts
		hi := (p + 1) * n / parts
		if hi > lo {
			out = append(out, Span{lo, hi})
		}
	}
	return out
}

// extent returns the element extent of a tile span along an axis of
// `size` elements.
func extent(s Span, size, tileSize int) int64 {
	lo := s.Lo * tileSize
	hi := s.Hi * tileSize
	if hi > size {
		hi = size
	}
	if hi < lo {
		return 0
	}
	return int64(hi - lo)
}

// regionBytes computes the stored size of the tiles of meta in the given
// logical row/column tile spans in closed form (the optimizer evaluates
// this for thousands of split candidates); transposed leaves read the
// mirrored region of the underlying matrix. For dense matrices the result
// is exact; for sparse ones it matches the engine's density estimate up
// to per-tile rounding.
func regionBytes(ref LeafRef, rows, cols Span) int64 {
	ri, rj := rows, cols
	if ref.Transposed {
		ri, rj = cols, rows
	}
	m := ref.Meta
	extR := extent(ri, m.Rows, m.TileSize)
	extC := extent(rj, m.Cols, m.TileSize)
	nTiles := int64(ri.Len()) * int64(rj.Len())
	if m.Sparse {
		nnz := int64(m.EffDensity() * float64(extR) * float64(extC))
		// CSR: 12 bytes per nonzero, row pointers per tile row, 20-byte
		// header+checksum per tile.
		return nnz*12 + (extR*int64(rj.Len())+nTiles)*4 + 20*nTiles
	}
	return extR*extC*8 + 16*nTiles
}

// progRegionBytes sums regionBytes over the distinct leaves of a compiled
// expression.
func progRegionBytes(p *TileProgram, rows, cols Span) int64 {
	var n int64
	for _, ref := range p.Refs {
		n += regionBytes(ref, rows, cols)
	}
	return n
}

// outRegionBytes computes the stored size of the output tiles in a chunk
// (density-scaled when the output is sparse, e.g. masked multiplies).
func outRegionBytes(meta store.Meta, rows, cols Span) int64 {
	return regionBytes(LeafRef{Meta: meta}, rows, cols)
}

// axis is one split axis in class form: a representative span of each
// shape class, and the class of every span.
type axis struct {
	reps  []Span
	class []uint8
}

// unitAxis stands in for the K axis of phases that have none.
var unitAxis = axis{reps: []Span{{0, 1}}, class: []uint8{0}}

// classesOf groups the spans of an axis by tile count, keeping the last
// span — the only one that can end in the ragged tile — in a class of its
// own.
func classesOf(n, parts int) axis {
	spans := PartitionAxis(n, parts)
	a := axis{class: make([]uint8, len(spans))}
	for i, s := range spans {
		c := len(a.reps)
		if i < len(spans)-1 {
			for k, r := range a.reps {
				if r.Len() == s.Len() {
					c = k
					break
				}
			}
		}
		if c == len(a.reps) {
			a.reps = append(a.reps, s)
		}
		a.class[i] = uint8(c)
	}
	return a
}

// classPhase builds the profile of a phase whose tasks are the cross
// product of the axes' spans (i outermost, k innermost, as the engine
// loops), evaluating work once per class.
func classPhase(ai, aj, ak axis, work func(is, js, ks Span) TaskWork) PhaseProfile {
	nj, nk := len(aj.reps), len(ak.reps)
	ph := PhaseProfile{
		Work:  make([]TaskWork, 0, len(ai.reps)*nj*nk),
		Class: make([]uint8, 0, len(ai.class)*len(aj.class)*len(ak.class)),
	}
	for _, is := range ai.reps {
		for _, js := range aj.reps {
			for _, ks := range ak.reps {
				ph.Work = append(ph.Work, work(is, js, ks))
			}
		}
	}
	for _, ci := range ai.class {
		for _, cj := range aj.class {
			for _, ck := range ak.class {
				ph.Class = append(ph.Class, uint8((int(ci)*nj+int(cj))*nk+int(ck)))
			}
		}
	}
	return ph
}

// Profile computes the per-phase work of a job under its current split,
// mirroring what the execution engine will account when it runs the tasks.
func Profile(j *Job) []PhaseProfile {
	ai := classesOf(j.ITiles(), j.Split.CI)
	aj := classesOf(j.JTiles(), j.Split.CJ)
	ts := j.Out.TileSize
	if j.Kind != MulKind {
		ops := int64(j.Prog.Ops())
		return []PhaseProfile{classPhase(ai, aj, unitAxis, func(is, js, _ Span) TaskWork {
			extI := extent(is, j.Out.Rows, ts)
			extJ := extent(js, j.Out.Cols, ts)
			return TaskWork{
				Flops:      ops * extI * extJ,
				ReadBytes:  progRegionBytes(j.Prog, is, js),
				WriteBytes: outRegionBytes(j.Out, is, js),
			}
		})}
	}

	ak := classesOf(j.KTiles(), j.Split.CK)
	ck := int64(len(ak.class))
	singleK := ck == 1
	density := 1.0
	if ref, ok := bareLeaf(j.LExpr, j.Leaves); ok && ref.Meta.Sparse {
		density = ref.Meta.EffDensity()
	}
	// A masked multiply only computes at the pattern's stored positions.
	maskRef, masked := j.Leaves[j.MaskLeaf]
	if masked {
		density = maskRef.Meta.EffDensity()
	}
	lOps, rOps := int64(j.LProg.Ops()), int64(j.RProg.Ops())
	var epiOps int64
	if j.Epilogue != nil {
		epiOps = int64(j.EpiProg.Ops())
	}
	// Partials are dense regardless of the output estimate.
	partialBytes := func(is, js Span, extI, extJ int64) int64 {
		return extI*extJ*8 + 16*int64(is.Len())*int64(js.Len())
	}

	phase1 := classPhase(ai, aj, ak, func(is, js, ks Span) TaskWork {
		extI := extent(is, j.Out.Rows, ts)
		extJ := extent(js, j.Out.Cols, ts)
		extK := extent(ks, j.KSize, ts)
		tilesI := int64(is.Len())
		tilesJ := int64(js.Len())
		w := TaskWork{}
		w.Flops = int64(2*density*float64(extI)*float64(extK)*float64(extJ)) +
			lOps*extI*extK*tilesJ + rOps*extK*extJ*tilesI
		w.ReadBytes = progRegionBytes(j.LProg, is, ks) + progRegionBytes(j.RProg, ks, js)
		if masked {
			w.ReadBytes += regionBytes(maskRef, is, js)
		}
		if !singleK {
			w.WriteBytes = partialBytes(is, js, extI, extJ)
			return w
		}
		w.Flops += epiOps * extI * extJ
		if j.Epilogue != nil {
			w.ReadBytes += progRegionBytes(j.EpiProg, is, js)
		}
		w.WriteBytes = outRegionBytes(j.Out, is, js)
		return w
	})
	if singleK {
		return []PhaseProfile{phase1}
	}
	phase2 := classPhase(ai, aj, unitAxis, func(is, js, _ Span) TaskWork {
		extI := extent(is, j.Out.Rows, ts)
		extJ := extent(js, j.Out.Cols, ts)
		w := TaskWork{
			Flops:      (ck-1)*extI*extJ + epiOps*extI*extJ,
			ReadBytes:  ck * partialBytes(is, js, extI, extJ),
			WriteBytes: outRegionBytes(j.Out, is, js),
		}
		if j.Epilogue != nil {
			w.ReadBytes += progRegionBytes(j.EpiProg, is, js)
		}
		return w
	})
	return []PhaseProfile{phase1, phase2}
}
