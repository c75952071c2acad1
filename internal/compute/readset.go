package compute

import (
	"math/bits"

	"cumulon/internal/dfs"
)

// readSet is the set of tiles a virtual task has traced a read of: an
// open-addressed table of tile addresses, each stamped with the generation
// that inserted it. Emptying the set is one increment — older stamps read as
// free slots — so a recycled set costs a task nothing that grows with what
// earlier tasks put in it, and a lookup hashes the address's three integers.
type readSet struct {
	slots []readSlot // linear probing; len is a power of two, at most half full
	n     int        // slots of the current generation
	gen   uint32     // never 0: a zero slot is free in every generation
}

type readSlot struct {
	a   dfs.TileAddr
	gen uint32
}

// reset empties the set and makes room for n tiles.
func (s *readSet) reset(n int) {
	s.n = 0
	if s.gen++; s.gen == 0 { // wrapped: the oldest stamps would read as live again
		clear(s.slots)
		s.gen = 1
	}
	if size := max(2*n, 16); size > len(s.slots) {
		s.slots = make([]readSlot, 1<<bits.Len(uint(size-1)))
	}
}

// add inserts tile address a and reports whether it was absent.
func (s *readSet) add(a dfs.TileAddr) bool {
	if 2*(s.n+1) > len(s.slots) {
		old := s.slots
		s.slots, s.n = make([]readSlot, 2*len(old)), 0
		for _, e := range old {
			if e.gen == s.gen {
				s.insert(e)
			}
		}
	}
	return s.insert(readSlot{a, s.gen})
}

// insert puts e in the first free slot of its probe sequence, unless the
// sequence holds its key already.
func (s *readSet) insert(e readSlot) bool {
	h := uint64(e.a.TI)*0x9E3779B97F4A7C15 + uint64(e.a.TJ)*0xC2B2AE3D27D4EB4F + uint64(e.a.Matrix)*0x165667B19E3779F9
	mask := len(s.slots) - 1
	for i := int(h>>32) & mask; ; i = (i + 1) & mask {
		switch at := &s.slots[i]; {
		case at.gen != s.gen:
			*at = e
			s.n++
			return true
		case *at == e:
			return false
		}
	}
}

// poison stamps every slot with the outgoing generation, so that whatever
// the set ever held — and tile (0, 0) of matrix 0, in the slots it never
// used — reads as seen until the next reset outdates it: a reader of stale
// marks drops reads from its trace.
func (s *readSet) poison() {
	for i := range s.slots {
		s.slots[i].gen = s.gen
	}
}
