package rtm

import (
	"github.com/tracereuse/tlr/internal/trace"
)

// IRB is the finite instruction-reuse buffer that the ILR trace-collection
// heuristics need (§4.6: "a different reuse memory used for testing
// instruction-level reusability is also needed; this memory has as many
// entries as the RTM").  It mirrors the RTM's geometry: Sets sets,
// PCWays static instructions per set, TracesPerPC input vectors per
// static instruction, all LRU.
//
// Input vectors are stored inline as the instruction's operand
// references and compared ref by ref, which is exactly equality of the
// byte signatures trace.AppendInputSignature would build.  Evicted PC
// slots and vector entries are recycled in place, so a full IRB
// allocates nothing per test.
type IRB struct {
	geom Geometry
	sets [][]*irbSlot
	tick uint64

	tests uint64
	hits  uint64
}

type irbSlot struct {
	pc      uint64
	vecs    []irbVec
	lastUse uint64
}

// irbVec is one recorded input vector: the first n refs of in.
type irbVec struct {
	in      [3]trace.Ref
	n       uint8
	lastUse uint64
}

// matches reports whether e read exactly the locations and values of v,
// in the same order.
func (v *irbVec) matches(e *trace.Exec) bool {
	if v.n != e.NIn {
		return false
	}
	for i := range v.in[:v.n] {
		if v.in[i] != e.In[i] {
			return false
		}
	}
	return true
}

// NewIRB builds an empty instruction-reuse buffer with the RTM's geometry.
func NewIRB(geom Geometry) *IRB {
	return &IRB{geom: geom, sets: make([][]*irbSlot, geom.Sets)}
}

// TestAndRecord reports whether e's input vector is present for its PC
// (instruction-level reusable with this finite table) and records the
// vector.  Side-effecting instructions are never reusable and never
// recorded.
func (b *IRB) TestAndRecord(e *trace.Exec) bool {
	if e.SideEffect {
		return false
	}
	b.tests++
	b.tick++
	set := int(e.PC) & (b.geom.Sets - 1)
	var slot *irbSlot
	for _, s := range b.sets[set] {
		if s.pc == e.PC {
			slot = s
			break
		}
	}
	if slot == nil {
		slot = b.claimSlot(set, e.PC)
	}
	slot.lastUse = b.tick

	for i := range slot.vecs {
		if slot.vecs[i].matches(e) {
			slot.vecs[i].lastUse = b.tick
			b.hits++
			return true
		}
	}
	if len(slot.vecs) >= b.geom.TracesPerPC {
		victim, vi := uint64(1)<<63, -1
		for i := range slot.vecs {
			if slot.vecs[i].lastUse < victim {
				victim, vi = slot.vecs[i].lastUse, i
			}
		}
		slot.vecs = append(slot.vecs[:vi], slot.vecs[vi+1:]...)
	}
	slot.vecs = append(slot.vecs, irbVec{in: e.In, n: e.NIn, lastUse: b.tick})
	return false
}

// HitRate returns the fraction of tests that found their input vector.
func (b *IRB) HitRate() float64 {
	if b.tests == 0 {
		return 0
	}
	return float64(b.hits) / float64(b.tests)
}

// claimSlot returns an empty slot for pc at the end of its set: a new one
// while the set has room, otherwise the least-recently-used slot, moved
// to the end and cleared (its vector storage kept).
func (b *IRB) claimSlot(set int, pc uint64) *irbSlot {
	ways := b.sets[set]
	if len(ways) < b.geom.PCWays {
		slot := &irbSlot{pc: pc}
		b.sets[set] = append(ways, slot)
		return slot
	}
	victim, vi := uint64(1)<<63, -1
	for i, s := range ways {
		if s.lastUse < victim {
			victim, vi = s.lastUse, i
		}
	}
	slot := ways[vi]
	copy(ways[vi:], ways[vi+1:])
	ways[len(ways)-1] = slot
	slot.pc, slot.vecs = pc, slot.vecs[:0]
	return slot
}
