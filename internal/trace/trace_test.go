package trace

import (
	"bytes"
	"testing"
	"testing/quick"

	"github.com/tracereuse/tlr/internal/isa"
)

func TestLocRoundTrip(t *testing.T) {
	f := func(r uint8, addr uint64) bool {
		r &= 31
		addr &= (1 << 62) - 1
		ir := IntReg(r)
		fr := FPReg(r)
		ml := Mem(addr)
		return ir.Kind() == KindIntReg && ir.Index() == uint64(r) &&
			fr.Kind() == KindFPReg && fr.Index() == uint64(r) &&
			ml.Kind() == KindMem && ml.Index() == addr &&
			ir != fr && !ir.IsMem() && ml.IsMem() && ir.IsReg() && !ml.IsReg()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLocDistinctAcrossKinds(t *testing.T) {
	if IntReg(3) == FPReg(3) {
		t.Error("r3 and f3 must be distinct locations")
	}
	if IntReg(3) == Mem(3) || FPReg(3) == Mem(3) {
		t.Error("registers must not alias memory word 3")
	}
}

func TestLocString(t *testing.T) {
	cases := map[Loc]string{
		IntReg(4):   "r4",
		FPReg(0):    "f0",
		Mem(0x1000): "m[0x1000]",
	}
	for l, want := range cases {
		if got := l.String(); got != want {
			t.Errorf("String(%#x) = %q, want %q", uint64(l), got, want)
		}
	}
}

func mkExec(pc uint64, ins []Ref, outs []Ref) Exec {
	var e Exec
	e.PC = pc
	e.Next = pc + 1
	e.Op = isa.ADD
	e.Lat = 1
	for _, r := range ins {
		e.AddIn(r.Loc, r.Val)
	}
	for _, r := range outs {
		e.AddOut(r.Loc, r.Val)
	}
	return e
}

func TestExecAccessors(t *testing.T) {
	e := mkExec(7, []Ref{{IntReg(1), 10}, {IntReg(2), 20}}, []Ref{{IntReg(3), 30}})
	if len(e.Inputs()) != 2 || len(e.Outputs()) != 1 {
		t.Fatalf("got %d in / %d out", len(e.Inputs()), len(e.Outputs()))
	}
	if e.Inputs()[1].Val != 20 || e.Outputs()[0].Loc != IntReg(3) {
		t.Error("ref contents wrong")
	}
	e.Reset()
	if len(e.Inputs()) != 0 || len(e.Outputs()) != 0 || e.SideEffect {
		t.Error("Reset did not clear")
	}
}

func TestAddInOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on 4th input")
		}
	}()
	var e Exec
	for i := 0; i < 4; i++ {
		e.AddIn(IntReg(uint8(i)), 0)
	}
}

func TestInputSignatureDistinguishes(t *testing.T) {
	a := mkExec(1, []Ref{{IntReg(1), 10}}, nil)
	b := mkExec(1, []Ref{{IntReg(1), 11}}, nil)
	c := mkExec(1, []Ref{{IntReg(2), 10}}, nil)
	d := mkExec(1, []Ref{{IntReg(1), 10}}, nil)
	sa := AppendInputSignature(nil, &a)
	sb := AppendInputSignature(nil, &b)
	sc := AppendInputSignature(nil, &c)
	sd := AppendInputSignature(nil, &d)
	if bytes.Equal(sa, sb) || bytes.Equal(sa, sc) {
		t.Error("different inputs must give different signatures")
	}
	if !bytes.Equal(sa, sd) {
		t.Error("identical inputs must give identical signatures")
	}
}

func TestInputSignatureOrderSensitive(t *testing.T) {
	// IL(T) is a sequence, not a set: read order matters.
	a := mkExec(1, []Ref{{IntReg(1), 5}, {IntReg(2), 6}}, nil)
	b := mkExec(1, []Ref{{IntReg(2), 6}, {IntReg(1), 5}}, nil)
	if bytes.Equal(AppendInputSignature(nil, &a), AppendInputSignature(nil, &b)) {
		t.Error("signature must be order sensitive")
	}
}

func TestSummarizeSimpleChain(t *testing.T) {
	// i0: r3 = r1 + r2 ; i1: r4 = r3 + r1 ; i2: M[100] = r4
	run := []Exec{
		mkExec(0, []Ref{{IntReg(1), 1}, {IntReg(2), 2}}, []Ref{{IntReg(3), 3}}),
		mkExec(1, []Ref{{IntReg(3), 3}, {IntReg(1), 1}}, []Ref{{IntReg(4), 4}}),
		mkExec(2, []Ref{{IntReg(4), 4}}, []Ref{{Mem(100), 4}}),
	}
	s := SummarizeRun(run)
	if s.StartPC != 0 || s.Next != 3 || s.Len != 3 {
		t.Fatalf("summary header wrong: %+v", s)
	}
	wantIns := []Ref{{IntReg(1), 1}, {IntReg(2), 2}}
	if len(s.Ins) != len(wantIns) {
		t.Fatalf("Ins = %v, want %v", s.Ins, wantIns)
	}
	for i := range wantIns {
		if s.Ins[i] != wantIns[i] {
			t.Errorf("Ins[%d] = %v, want %v", i, s.Ins[i], wantIns[i])
		}
	}
	wantOuts := []Ref{{IntReg(3), 3}, {IntReg(4), 4}, {Mem(100), 4}}
	if len(s.Outs) != len(wantOuts) {
		t.Fatalf("Outs = %v, want %v", s.Outs, wantOuts)
	}
	for i := range wantOuts {
		if s.Outs[i] != wantOuts[i] {
			t.Errorf("Outs[%d] = %v, want %v", i, s.Outs[i], wantOuts[i])
		}
	}
	inR, inM := s.InCounts()
	outR, outM := s.OutCounts()
	if inR != 2 || inM != 0 || outR != 2 || outM != 1 {
		t.Errorf("counts: in %d/%d out %d/%d", inR, inM, outR, outM)
	}
}

func TestSummarizeWriteThenReadIsNotLiveIn(t *testing.T) {
	run := []Exec{
		mkExec(0, nil, []Ref{{IntReg(1), 7}}),                   // r1 = imm
		mkExec(1, []Ref{{IntReg(1), 7}}, []Ref{{IntReg(2), 8}}), // reads r1 written above
	}
	s := SummarizeRun(run)
	if len(s.Ins) != 0 {
		t.Errorf("Ins = %v, want empty (r1 is produced inside the run)", s.Ins)
	}
}

func TestSummarizeFinalValueWins(t *testing.T) {
	run := []Exec{
		mkExec(0, nil, []Ref{{IntReg(1), 1}}),
		mkExec(1, nil, []Ref{{IntReg(1), 2}}),
	}
	s := SummarizeRun(run)
	if len(s.Outs) != 1 || s.Outs[0].Val != 2 {
		t.Errorf("Outs = %v, want single r1=2", s.Outs)
	}
}

func TestSummarizeFirstReadValueWins(t *testing.T) {
	// A live-in read twice keeps the value of its first read; the second
	// read of the same location must observe the same value anyway in a
	// real stream, but the summary is defined by the first.
	run := []Exec{
		mkExec(0, []Ref{{IntReg(1), 5}}, []Ref{{IntReg(2), 6}}),
		mkExec(1, []Ref{{IntReg(1), 5}}, []Ref{{IntReg(3), 7}}),
	}
	s := SummarizeRun(run)
	if len(s.Ins) != 1 || s.Ins[0] != (Ref{IntReg(1), 5}) {
		t.Errorf("Ins = %v", s.Ins)
	}
}

func TestSummarizerRejectsSideEffect(t *testing.T) {
	var z Summarizer
	var e Exec
	e.Op = isa.OUT
	e.SideEffect = true
	e.AddIn(IntReg(1), 3)
	if z.TryAdd(&e, Unlimited) {
		t.Error("side-effecting instruction must be rejected")
	}
	if !z.Empty() {
		t.Error("rejection must leave summarizer unchanged")
	}
}

func TestSummarizerCaps(t *testing.T) {
	caps := Caps{InReg: 2, InMem: 1, OutReg: 2, OutMem: 1}
	var z Summarizer
	e1 := mkExec(0, []Ref{{IntReg(1), 1}, {IntReg(2), 2}}, []Ref{{IntReg(3), 3}})
	if !z.TryAdd(&e1, caps) {
		t.Fatal("e1 should fit")
	}
	// e2 adds a third live-in register: must be rejected, state unchanged.
	e2 := mkExec(1, []Ref{{IntReg(4), 4}}, []Ref{{IntReg(5), 5}})
	if z.TryAdd(&e2, caps) {
		t.Fatal("e2 should exceed InReg cap")
	}
	s := z.Summary()
	if s.Len != 1 || len(s.Ins) != 2 || len(s.Outs) != 1 {
		t.Errorf("state changed on rejection: %+v", s)
	}
	// e3 reads a location produced inside the run: no new live-in, fits.
	e3 := mkExec(1, []Ref{{IntReg(3), 3}}, []Ref{{Mem(50), 9}})
	if !z.TryAdd(&e3, caps) {
		t.Fatal("e3 should fit (reads r3 produced in-run)")
	}
	s = z.Summary()
	if s.Len != 2 || len(s.Outs) != 2 {
		t.Errorf("after e3: %+v", s)
	}
}

func TestSummarizerMemCaps(t *testing.T) {
	caps := Caps{InReg: 8, InMem: 1, OutReg: 8, OutMem: 4}
	var z Summarizer
	e1 := mkExec(0, []Ref{{Mem(1), 10}}, []Ref{{IntReg(1), 10}})
	e2 := mkExec(1, []Ref{{Mem(2), 20}}, []Ref{{IntReg(2), 20}})
	if !z.TryAdd(&e1, caps) {
		t.Fatal("first memory live-in should fit")
	}
	if z.TryAdd(&e2, caps) {
		t.Fatal("second memory live-in should exceed InMem=1")
	}
}

func TestSummarizerSeed(t *testing.T) {
	base := Summary{
		StartPC: 10, Next: 13, Len: 3,
		Ins:  []Ref{{IntReg(1), 1}},
		Outs: []Ref{{IntReg(2), 5}},
	}
	var z Summarizer
	z.Seed(&base)
	// Reading r2 (an output of the seed) must not create a live-in;
	// reading r3 must.
	e := mkExec(13, []Ref{{IntReg(2), 5}, {IntReg(3), 9}}, []Ref{{IntReg(2), 6}})
	if !z.TryAdd(&e, Unlimited) {
		t.Fatal("TryAdd failed")
	}
	s := z.Summary()
	if s.StartPC != 10 || s.Len != 4 || s.Next != 14 {
		t.Errorf("header: %+v", s)
	}
	if len(s.Ins) != 2 || s.Ins[1] != (Ref{IntReg(3), 9}) {
		t.Errorf("Ins = %v", s.Ins)
	}
	if len(s.Outs) != 1 || s.Outs[0].Val != 6 {
		t.Errorf("Outs = %v (final value must win)", s.Outs)
	}
}

func TestSummarizerDuplicateInputInOneExec(t *testing.T) {
	// add r3, r1, r1 reads r1 twice: only one live-in entry.
	e := mkExec(0, []Ref{{IntReg(1), 4}, {IntReg(1), 4}}, []Ref{{IntReg(3), 8}})
	var z Summarizer
	if !z.TryAdd(&e, Caps{InReg: 1, InMem: 0, OutReg: 1, OutMem: 0}) {
		t.Fatal("duplicate reads of one location must count once")
	}
	if s := z.Summary(); len(s.Ins) != 1 {
		t.Errorf("Ins = %v, want 1 entry", s.Ins)
	}
}

func TestSummarizerReset(t *testing.T) {
	var z Summarizer
	e := mkExec(0, []Ref{{IntReg(1), 1}}, []Ref{{IntReg(2), 2}})
	z.Add(&e)
	z.Reset()
	if !z.Empty() || z.Len() != 0 {
		t.Error("Reset did not clear")
	}
	e2 := mkExec(5, []Ref{{IntReg(2), 2}}, nil)
	z.Add(&e2)
	if s := z.Summary(); s.StartPC != 5 || len(s.Ins) != 1 {
		t.Errorf("after reset: %+v", s)
	}
}

func TestPropertySummaryLenMatchesRun(t *testing.T) {
	f := func(seed uint8, n uint8) bool {
		n = n%20 + 1
		run := make([]Exec, 0, n)
		for i := uint8(0); i < n; i++ {
			r1 := (seed + i) % 8
			run = append(run, mkExec(uint64(i),
				[]Ref{{IntReg(r1), uint64(r1)}},
				[]Ref{{IntReg((r1 + 1) % 8), uint64(i)}}))
		}
		s := SummarizeRun(run)
		return s.Len == int(n) && len(s.Ins) <= int(n) && len(s.Outs) <= int(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
