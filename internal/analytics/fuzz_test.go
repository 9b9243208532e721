package analytics

import (
	"testing"

	"github.com/tracereuse/tlr/internal/trace"
)

// fuzzLocs decodes fuzz bytes into an access sequence, two bytes per
// access: b0%3 picks the class; a register index is b1%41, so indices
// past the register file (and the class spill they force) are in
// reach; a memory word is (b0/3)<<8|b1 modulo 400.
func fuzzLocs(data []byte) []trace.Loc {
	const maxAccesses = 4096
	var locs []trace.Loc
	for i := 0; i+1 < len(data) && len(locs) < maxAccesses; i += 2 {
		b0, b1 := data[i], data[i+1]
		switch b0 % 3 {
		case 0:
			locs = append(locs, trace.IntReg(b1%41))
		case 1:
			locs = append(locs, trace.FPReg(b1%41))
		default:
			locs = append(locs, trace.Mem((uint64(b0/3)<<8|uint64(b1))%400))
		}
	}
	return locs
}

// fuzzBytes is fuzzLocs' inverse, for building seeds.
func fuzzBytes(locs ...trace.Loc) []byte {
	var data []byte
	for _, l := range locs {
		i := l.Index()
		switch l.Kind() {
		case trace.KindIntReg:
			data = append(data, 0, byte(i))
		case trace.KindFPReg:
			data = append(data, 1, byte(i))
		default:
			data = append(data, byte(2+3*(i>>8)), byte(i))
		}
	}
	return data
}

// FuzzAnalyzer checks the engine against the O(n²) reference on
// arbitrary short streams over all three classes.
func FuzzAnalyzer(f *testing.F) {
	var regs, mem, mixed []trace.Loc
	for r := uint8(0); r < 32; r++ {
		regs = append(regs, trace.IntReg(r), trace.FPReg(31-r))
	}
	for i := uint64(0); i < 600; i++ {
		mem = append(mem, trace.Mem(i*i%397))
		mixed = append(mixed, trace.IntReg(uint8(i%7)), trace.Mem(i%23), trace.FPReg(uint8(i%5)))
	}
	// The spill at the very first access, before any register is listed.
	f.Add(fuzzBytes(append([]trace.Loc{trace.IntReg(40), trace.FPReg(33)}, mixed...)...))
	// The spill after all 32 registers of each class are listed.
	f.Add(fuzzBytes(append(append(regs, trace.IntReg(35), trace.FPReg(32)), regs...)...))
	// Memory only.
	f.Add(fuzzBytes(mem...))
	f.Fuzz(func(t *testing.T, data []byte) {
		fast := New()
		naive := &naiveAnalyzer{}
		for _, l := range fuzzLocs(data) {
			e := &trace.Exec{}
			e.AddIn(l, 0)
			fast.Consume(e)
			naive.consume(e)
		}
		if got, want := fast.Result(), naive.result(); got != want {
			t.Fatalf("diverged:\n fast  %+v\n naive %+v", got, want)
		}
	})
}
