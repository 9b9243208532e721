package trace

import (
	"math/rand"
	"testing"
)

// TestLocMapMatchesMap checks LocMap against a plain map over random
// gets and sets, including register indices past the register file and
// the unused fourth kind, which both take the overflow path.
func TestLocMapMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	loc := func() Loc {
		switch rng.Intn(5) {
		case 0:
			return IntReg(uint8(rng.Intn(48))) // >= isa.NumRegs overflows
		case 1:
			return FPReg(uint8(rng.Intn(48)))
		case 2:
			return Loc(uint64(3)<<kindShift | uint64(rng.Intn(8)))
		default:
			return Mem(uint64(rng.Intn(64)) << 40)
		}
	}
	var lm LocMap[float64]
	want := map[Loc]float64{}
	for i := 0; i < 50000; i++ {
		l := loc()
		if rng.Intn(2) == 0 {
			v := rng.Float64()
			lm.Set(l, v)
			want[l] = v
		}
		if got := lm.Get(l); got != want[l] {
			t.Fatalf("op %d: Get(%v) = %v, want %v", i, l, got, want[l])
		}
	}
	for l, v := range want {
		if got := lm.Get(l); got != v {
			t.Fatalf("final: Get(%v) = %v, want %v", l, got, v)
		}
	}
	if len(lm.over) == 0 {
		t.Error("no location took the overflow path")
	}
}

// TestLocMapRegistersDoNotAlias keeps the three register/memory spaces
// apart: r3, f3 and word 3 are distinct keys.
func TestLocMapRegistersDoNotAlias(t *testing.T) {
	var lm LocMap[uint64]
	lm.Set(IntReg(3), 1)
	lm.Set(FPReg(3), 2)
	lm.Set(Mem(3), 3)
	if lm.Get(IntReg(3)) != 1 || lm.Get(FPReg(3)) != 2 || lm.Get(Mem(3)) != 3 {
		t.Errorf("aliasing: r3=%d f3=%d m3=%d", lm.Get(IntReg(3)), lm.Get(FPReg(3)), lm.Get(Mem(3)))
	}
}
