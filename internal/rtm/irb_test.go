package rtm

import (
	"math/rand"
	"testing"

	"github.com/tracereuse/tlr/internal/trace"
)

// refIRB is the original instruction-reuse buffer, keyed by exact byte
// signatures (trace.AppendInputSignature) and appending a fresh slot on
// every PC eviction: the differential oracle for IRB's inline vectors
// and in-place recycling.
type refIRB struct {
	geom   Geometry
	sets   [][]*refIRBSlot
	tick   uint64
	sigBuf []byte

	tests, hits uint64
}

type refIRBSlot struct {
	pc      uint64
	sigs    []refIRBSig
	lastUse uint64
}

type refIRBSig struct {
	sig     string
	lastUse uint64
}

func (b *refIRB) TestAndRecord(e *trace.Exec) bool {
	if e.SideEffect {
		return false
	}
	b.tests++
	b.tick++
	set := int(e.PC) & (b.geom.Sets - 1)
	var slot *refIRBSlot
	for _, s := range b.sets[set] {
		if s.pc == e.PC {
			slot = s
			break
		}
	}
	if slot == nil {
		slot = &refIRBSlot{pc: e.PC}
		if len(b.sets[set]) >= b.geom.PCWays {
			victim, vi := uint64(1)<<63, -1
			for i, s := range b.sets[set] {
				if s.lastUse < victim {
					victim, vi = s.lastUse, i
				}
			}
			b.sets[set] = append(b.sets[set][:vi], b.sets[set][vi+1:]...)
		}
		b.sets[set] = append(b.sets[set], slot)
	}
	slot.lastUse = b.tick
	b.sigBuf = trace.AppendInputSignature(b.sigBuf[:0], e)
	for i := range slot.sigs {
		if slot.sigs[i].sig == string(b.sigBuf) {
			slot.sigs[i].lastUse = b.tick
			b.hits++
			return true
		}
	}
	if len(slot.sigs) >= b.geom.TracesPerPC {
		victim, vi := uint64(1)<<63, -1
		for i := range slot.sigs {
			if slot.sigs[i].lastUse < victim {
				victim, vi = slot.sigs[i].lastUse, i
			}
		}
		slot.sigs = append(slot.sigs[:vi], slot.sigs[vi+1:]...)
	}
	slot.sigs = append(slot.sigs, refIRBSig{sig: string(b.sigBuf), lastUse: b.tick})
	return false
}

func (b *refIRB) HitRate() float64 {
	if b.tests == 0 {
		return 0
	}
	return float64(b.hits) / float64(b.tests)
}

// randIRBExec draws an instruction from a small PC and operand space, so
// both hits and both levels of eviction are frequent.  Stale operand
// slots past NIn are filled with junk, which must not affect matching.
func randIRBExec(rng *rand.Rand) trace.Exec {
	var e trace.Exec
	e.PC = uint64(rng.Intn(48))
	e.SideEffect = rng.Intn(50) == 0
	for i := range e.In {
		e.In[i] = trace.Ref{Loc: trace.IntReg(uint8(rng.Intn(32))), Val: rng.Uint64()}
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		var l trace.Loc
		switch rng.Intn(3) {
		case 0:
			l = trace.IntReg(uint8(rng.Intn(3)))
		case 1:
			l = trace.FPReg(uint8(rng.Intn(3)))
		default:
			l = trace.Mem(uint64(rng.Intn(3)))
		}
		e.In[i] = trace.Ref{Loc: l, Val: uint64(rng.Intn(3))}
		e.NIn++
	}
	return e
}

// TestIRBMatchesSignatureReference checks the inline-vector IRB against
// the byte-signature reference: the same hit/miss answer on every test
// and the same HitRate, across geometries small enough to evict often.
func TestIRBMatchesSignatureReference(t *testing.T) {
	for _, g := range []Geometry{
		{Sets: 1, PCWays: 1, TracesPerPC: 1},
		{Sets: 4, PCWays: 2, TracesPerPC: 2},
		{Sets: 8, PCWays: 4, TracesPerPC: 4},
		Geometry512,
	} {
		rng := rand.New(rand.NewSource(int64(g.Entries())))
		b, ref := NewIRB(g), &refIRB{geom: g, sets: make([][]*refIRBSlot, g.Sets)}
		hits := 0
		for i := 0; i < 50000; i++ {
			e := randIRBExec(rng)
			got, want := b.TestAndRecord(&e), ref.TestAndRecord(&e)
			if got != want {
				t.Fatalf("%v: test %d (%v): IRB says %v, reference %v", g, i, &e, got, want)
			}
			if got {
				hits++
			}
		}
		if b.HitRate() != ref.HitRate() {
			t.Errorf("%v: HitRate %v, reference %v", g, b.HitRate(), ref.HitRate())
		}
		if hits == 0 || hits == 50000 {
			t.Errorf("%v: %d hits of 50000: the stream does not exercise both answers", g, hits)
		}
	}
}

// TestIRBFullTableAllocatesNothing pins the recycling: once every set is
// full, testing (hits, vector evictions and PC evictions alike) does not
// allocate.
func TestIRBFullTableAllocatesNothing(t *testing.T) {
	g := Geometry{Sets: 4, PCWays: 2, TracesPerPC: 2}
	b := NewIRB(g)
	rng := rand.New(rand.NewSource(9))
	stream := make([]trace.Exec, 4096)
	for i := range stream {
		stream[i] = randIRBExec(rng)
	}
	for i := range stream {
		b.TestAndRecord(&stream[i])
	}
	for _, set := range b.sets {
		if len(set) != g.PCWays {
			t.Fatalf("warm-up left a set with %d of %d PCs", len(set), g.PCWays)
		}
	}
	if n := testing.AllocsPerRun(10, func() {
		for i := range stream {
			b.TestAndRecord(&stream[i])
		}
	}); n != 0 {
		t.Errorf("full IRB allocates %.1f times per %d tests, want 0", n, len(stream))
	}
}
