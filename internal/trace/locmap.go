package trace

import "github.com/tracereuse/tlr/internal/isa"

// LocMap is a table keyed by Loc for the engines' per-record state (ready
// times, shadow values): registers live in flat arrays indexed by
// register number, memory words in a map keyed by word address, and any
// register index outside the register file — which only a malformed,
// e.g. hand-crafted, stream can name — in an overflow map.  Locations
// never set read as the zero V.  The zero value is an empty table.
type LocMap[V any] struct {
	r    [isa.NumRegs]V
	f    [isa.NumRegs]V
	m    map[uint64]V
	over map[Loc]V
}

// Get returns the value stored for l.
func (t *LocMap[V]) Get(l Loc) V {
	idx := l.Index()
	switch l.Kind() {
	case KindIntReg:
		if idx < isa.NumRegs {
			return t.r[idx]
		}
	case KindFPReg:
		if idx < isa.NumRegs {
			return t.f[idx]
		}
	case KindMem:
		return t.m[idx]
	}
	return t.over[l]
}

// Set stores v for l.
func (t *LocMap[V]) Set(l Loc, v V) {
	idx := l.Index()
	switch l.Kind() {
	case KindIntReg:
		if idx < isa.NumRegs {
			t.r[idx] = v
			return
		}
	case KindFPReg:
		if idx < isa.NumRegs {
			t.f[idx] = v
			return
		}
	case KindMem:
		if t.m == nil {
			t.m = make(map[uint64]V)
		}
		t.m[idx] = v
		return
	}
	if t.over == nil {
		t.over = make(map[Loc]V)
	}
	t.over[l] = v
}
