package trace

import (
	"testing"

	"github.com/tracereuse/tlr/internal/isa"
)

func summaryOf(startPC uint64, n int, ins, outs []Ref) Summary {
	return Summary{StartPC: startPC, Next: startPC + uint64(n), Len: n, Ins: ins, Outs: outs}
}

func TestTryMergeConsecutiveTraces(t *testing.T) {
	// T1: reads r1, writes r2 and m[10].  T2: reads r2 (internal after
	// merge!) and r3, writes m[10] (overwrites) and r4.
	var z Summarizer
	t1 := summaryOf(100, 3,
		[]Ref{{IntReg(1), 11}},
		[]Ref{{IntReg(2), 22}, {Mem(10), 1}})
	z.Seed(&t1)
	t2 := summaryOf(103, 4,
		[]Ref{{IntReg(2), 22}, {IntReg(3), 33}},
		[]Ref{{Mem(10), 2}, {IntReg(4), 44}})
	if !z.TryMerge(&t2, Unlimited) {
		t.Fatal("merge rejected")
	}
	s := z.Summary()
	if s.StartPC != 100 || s.Len != 7 || s.Next != 107 {
		t.Errorf("header: %+v", s)
	}
	wantIns := []Ref{{IntReg(1), 11}, {IntReg(3), 33}} // r2 became internal
	if len(s.Ins) != len(wantIns) || s.Ins[0] != wantIns[0] || s.Ins[1] != wantIns[1] {
		t.Errorf("Ins = %v, want %v", s.Ins, wantIns)
	}
	// m[10] keeps one entry with T2's (final) value.
	var m10 *Ref
	for i := range s.Outs {
		if s.Outs[i].Loc == Mem(10) {
			m10 = &s.Outs[i]
		}
	}
	if m10 == nil || m10.Val != 2 {
		t.Errorf("Outs = %v, want m[10]=2", s.Outs)
	}
	if len(s.Outs) != 3 { // r2, m[10], r4
		t.Errorf("Outs = %v", s.Outs)
	}
}

func TestTryMergeRespectsCaps(t *testing.T) {
	caps := Caps{InReg: 2, InMem: 4, OutReg: 8, OutMem: 4}
	var z Summarizer
	t1 := summaryOf(0, 2, []Ref{{IntReg(1), 1}, {IntReg(2), 2}}, nil)
	z.Seed(&t1)
	t2 := summaryOf(2, 2, []Ref{{IntReg(3), 3}}, nil) // third register live-in
	if z.TryMerge(&t2, caps) {
		t.Fatal("merge should exceed InReg cap")
	}
	s := z.Summary()
	if s.Len != 2 || len(s.Ins) != 2 {
		t.Errorf("rejection must not mutate: %+v", s)
	}
	// A merge whose live-ins are covered by the current outputs fits.
	var z2 Summarizer
	t3 := summaryOf(0, 2, []Ref{{IntReg(1), 1}, {IntReg(2), 2}}, []Ref{{IntReg(3), 3}})
	z2.Seed(&t3)
	covered := summaryOf(2, 2, []Ref{{IntReg(3), 3}}, nil)
	if !z2.TryMerge(&covered, caps) {
		t.Fatal("covered live-in should not count against the cap")
	}
}

func TestTryMergeIntoEmptySummarizer(t *testing.T) {
	var z Summarizer
	t1 := summaryOf(7, 3, []Ref{{Mem(5), 50}}, []Ref{{IntReg(1), 10}})
	if !z.TryMerge(&t1, Unlimited) {
		t.Fatal("merge into empty failed")
	}
	s := z.Summary()
	if s.StartPC != 7 || s.Len != 3 || len(s.Ins) != 1 || len(s.Outs) != 1 {
		t.Errorf("summary: %+v", s)
	}
}

func TestMergeThenAddInstruction(t *testing.T) {
	// The RTM's expansion path: seed from a stored entry, merge a second
	// entry, then append executed instructions.
	var z Summarizer
	t1 := summaryOf(0, 2, []Ref{{IntReg(1), 1}}, []Ref{{IntReg(2), 2}})
	z.Seed(&t1)
	next := summaryOf(2, 2, []Ref{{IntReg(2), 2}}, []Ref{{IntReg(3), 3}})
	if !z.TryMerge(&next, Unlimited) {
		t.Fatal("merge failed")
	}
	var e Exec
	e.PC, e.Next, e.Op, e.Lat = 4, 5, isa.ADD, 1
	e.AddIn(IntReg(3), 3) // internal: produced by the merged trace
	e.AddIn(IntReg(9), 9) // fresh live-in
	e.AddOut(IntReg(4), 4)
	if !z.TryAdd(&e, Unlimited) {
		t.Fatal("add failed")
	}
	s := z.Summary()
	if s.Len != 5 || s.Next != 5 {
		t.Errorf("header: %+v", s)
	}
	wantIns := []Ref{{IntReg(1), 1}, {IntReg(9), 9}}
	if len(s.Ins) != 2 || s.Ins[0] != wantIns[0] || s.Ins[1] != wantIns[1] {
		t.Errorf("Ins = %v, want %v", s.Ins, wantIns)
	}
}

func TestTryMergeDuplicateLiveIn(t *testing.T) {
	// Both traces read the same location: one live-in entry, first value
	// kept (they must agree in a real stream anyway).
	var z Summarizer
	z.Seed(&Summary{StartPC: 0, Next: 2, Len: 2, Ins: []Ref{{IntReg(1), 5}}})
	dup := summaryOf(2, 2, []Ref{{IntReg(1), 5}}, nil)
	if !z.TryMerge(&dup, Unlimited) {
		t.Fatal("merge failed")
	}
	if s := z.Summary(); len(s.Ins) != 1 {
		t.Errorf("Ins = %v", s.Ins)
	}
}
