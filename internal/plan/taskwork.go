package plan

import (
	"strconv"

	"cumulon/internal/store"
)

// PhaseKind is what the tasks of a scheduling phase compute.
type PhaseKind uint8

const (
	// MapPhase evaluates a Map job's tape over output tiles.
	MapPhase PhaseKind = iota
	// MulPhase multiplies over a K chunk: into the job's output, with the
	// epilogue fused, when the phase has no partials; into partial k
	// otherwise.
	MulPhase
	// MaskedPhase multiplies over the whole K at the mask's stored
	// positions and writes sparse tiles.
	MaskedPhase
	// AggPhase sums a k-split product's partials and applies the epilogue.
	AggPhase
)

// Phase is one scheduling phase of a job under its split. Its tasks are the
// cross product of the I, J and K spans, i outermost and k innermost (Task):
// the order the engine schedules them in and PhaseProfile.Class lists them.
type Phase struct {
	Kind    PhaseKind
	I, J, K []Span
	// Partials are a k-split product's dense partial matrices, named
	// <out>~p<c> and numbered from len(Plan.Names) up: what task k of its
	// MulPhase writes and its AggPhase sums. nil without a k-split.
	Partials []store.Meta
}

// Phases returns the scheduling phases of the job under its split; it alone
// decides which tasks a job runs. A Map job is one MapPhase. A product is one
// MulPhase over the split's K chunks, followed, when there is more than one,
// by the AggPhase that sums their partials. A masked product is one
// MaskedPhase over the whole K: partial sparse aggregation is not supported,
// so it cannot k-split (Split.Validate rejects CK > 1).
func (j *Job) Phases() []Phase {
	I := PartitionAxis(j.ITiles(), j.Split.CI)
	J := PartitionAxis(j.JTiles(), j.Split.CJ)
	switch {
	case j.Kind != MulKind:
		return []Phase{{Kind: MapPhase, I: I, J: J, K: []Span{{0, 1}}}}
	case j.MaskLeaf != "":
		return []Phase{{Kind: MaskedPhase, I: I, J: J, K: []Span{{0, j.KTiles()}}}}
	}
	K := PartitionAxis(j.KTiles(), j.Split.CK)
	if len(K) == 1 {
		return []Phase{{Kind: MulPhase, I: I, J: J, K: K}}
	}
	partials := partialsOf(j.Out, j.partials, len(K))
	return []Phase{
		{Kind: MulPhase, I: I, J: J, K: K, Partials: partials},
		{Kind: AggPhase, I: I, J: J, K: []Span{{0, j.KTiles()}}, Partials: partials},
	}
}

// partialsOf returns the n partials of out, <out>~p0 … <out>~p<n-1>,
// numbered from first, dense whatever out is, their names cut from one
// string: a split sweep profiles hundreds of k-splits.
func partialsOf(out store.Meta, first int32, n int) []store.Meta {
	b := make([]byte, 0, n*(len(out.Name)+6))
	for c := range n {
		b = strconv.AppendInt(append(append(b, out.Name...), "~p"...), int64(c), 10)
	}
	names, ps := string(b), make([]store.Meta, n)
	var digits [20]byte
	for c := range ps {
		w := len(out.Name) + 2 + len(strconv.AppendInt(digits[:0], int64(c), 10))
		ps[c] = out
		ps[c].Name, ps[c].Sparse, names = names[:w], false, names[w:]
		ps[c].Num = first + int32(c)
	}
	return ps
}

// Tasks returns the number of tasks in the phase.
func (ph *Phase) Tasks() int { return len(ph.I) * len(ph.J) * len(ph.K) }

// Task returns the spans of task t of the phase.
func (ph *Phase) Task(t int) (is, js, ks Span) {
	nj, nk := len(ph.J), len(ph.K)
	return ph.I[t/(nj*nk)], ph.J[t/nk%nj], ph.K[t%nk]
}

// Out returns the matrix task t writes: its K chunk's partial in a MulPhase
// with partials, the job's output otherwise.
func (ph *Phase) Out(j *Job, t int) store.Meta {
	if ph.Kind == MulPhase && ph.Partials != nil {
		return ph.Partials[t%len(ph.K)]
	}
	return j.Out
}

// Epilogue returns the epilogue tape the phase's tasks apply, nil for none:
// the job's, fused into the product when there are no partials and applied
// by the aggregation otherwise, since a partial must stay a raw product.
func (ph *Phase) Epilogue(j *Job) *TileProgram {
	if ph.Kind == MulPhase && ph.Partials != nil {
		return nil
	}
	return j.EpiProg
}

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

// TaskFootprint returns the most bytes one task of a job holds, given the
// job's Profile: its largest class's ReadBytes + WriteBytes. Sparse tiles
// count at stored size, and every leaf, mask and partial counts; a tile that
// several of a task's tapes read counts per tape, which only overestimates.
func TaskFootprint(phases []PhaseProfile) int64 {
	var peak int64
	for _, ph := range phases {
		for _, w := range ph.Work {
			peak = max(peak, w.ReadBytes+w.WriteBytes)
		}
	}
	return peak
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
// a split assigns to tasks (Phases).
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

// axis is one split axis in class form: a representative span of each of
// its ≤ 3 shape classes, and the class of every span.
type axis struct {
	reps  [3]Span
	n     int
	class []uint8
}

// classesOf groups spans by tile count, keeping the last span — the only one
// that can end in the ragged tile — in a class of its own. It appends the
// classes to buf.
func classesOf(buf []uint8, spans []Span) axis {
	a := axis{class: buf}
	for i, s := range spans {
		c := a.n
		if i < len(spans)-1 {
			for k, r := range a.reps[:a.n] {
				if r.Len() == s.Len() {
					c = k
					break
				}
			}
		}
		if c == a.n {
			a.reps[a.n] = s
			a.n++
		}
		a.class = append(a.class, uint8(c))
	}
	return a
}

// classPhase builds the profile of a phase, evaluating work once per class
// and listing the class of every task in task order.
func classPhase(ph *Phase, work func(is, js, ks Span) TaskWork) PhaseProfile {
	var buf [64]uint8 // the three axes' classes, when they fit
	ai := classesOf(buf[:0], ph.I)
	aj := classesOf(ai.class[len(ai.class):], ph.J)
	ak := classesOf(aj.class[len(aj.class):], ph.K)
	pp := PhaseProfile{
		Work:  make([]TaskWork, 0, ai.n*aj.n*ak.n),
		Class: make([]uint8, 0, ph.Tasks()),
	}
	for _, is := range ai.reps[:ai.n] {
		for _, js := range aj.reps[:aj.n] {
			for _, ks := range ak.reps[:ak.n] {
				pp.Work = append(pp.Work, work(is, js, ks))
			}
		}
	}
	for _, ci := range ai.class {
		for _, cj := range aj.class {
			for _, ck := range ak.class {
				pp.Class = append(pp.Class, uint8((int(ci)*aj.n+int(cj))*ak.n+int(ck)))
			}
		}
	}
	return pp
}

// Profile computes the per-phase work of a job's Phases under its current
// split, mirroring what the execution engine will account when it runs the
// tasks.
func Profile(j *Job) []PhaseProfile {
	phases := j.Phases()
	out := make([]PhaseProfile, len(phases))
	ts := j.Out.TileSize
	// A bare sparse left operand is multiplied at its density, a masked
	// product only at the pattern's stored positions.
	density := 1.0
	if ref, ok := BareLeaf(j.LExpr, j.Leaves); ok && ref.Meta.Sparse {
		density = ref.Meta.EffDensity()
	}
	mask, masked := j.Leaves[j.MaskLeaf]
	if masked {
		density = mask.Meta.EffDensity()
	}
	for p := range phases {
		ph := &phases[p]
		ck := int64(len(ph.Partials))
		out[p] = classPhase(ph, func(is, js, ks Span) TaskWork {
			extI, extJ := extent(is, j.Out.Rows, ts), extent(js, j.Out.Cols, ts)
			var w TaskWork
			switch ph.Kind {
			case MapPhase:
				w = TaskWork{Flops: int64(j.Prog.Ops()) * extI * extJ, ReadBytes: progRegionBytes(j.Prog, is, js)}
			case AggPhase:
				w = TaskWork{Flops: (ck - 1) * extI * extJ, ReadBytes: ck * outRegionBytes(ph.Partials[0], is, js)}
			default:
				extK := extent(ks, j.KSize, ts)
				w.Flops = int64(2*density*float64(extI)*float64(extK)*float64(extJ)) +
					int64(j.LProg.Ops())*extI*extK*int64(js.Len()) + int64(j.RProg.Ops())*extK*extJ*int64(is.Len())
				w.ReadBytes = progRegionBytes(j.LProg, is, ks) + progRegionBytes(j.RProg, ks, js)
				if masked {
					w.ReadBytes += regionBytes(mask, is, js)
				}
			}
			if epi := ph.Epilogue(j); epi != nil {
				w.Flops += int64(epi.Ops()) * extI * extJ
				w.ReadBytes += progRegionBytes(epi, is, js)
			}
			w.WriteBytes = outRegionBytes(ph.Out(j, 0), is, js)
			return w
		})
	}
	return out
}
