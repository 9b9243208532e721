package trace

// refSummarizer is the original map-indexed Summarizer, kept as the
// differential oracle for the scan-then-index implementation: every
// operation here is the straightforward map formulation of the same
// live-in/live-out semantics.
type refSummarizer struct {
	sum     Summary
	inIdx   map[Loc]int // location -> index in sum.Ins
	outIdx  map[Loc]int // location -> index in sum.Outs
	started bool

	inReg, inMem, outReg, outMem int
}

func newRefSummarizer() *refSummarizer {
	return &refSummarizer{inIdx: make(map[Loc]int), outIdx: make(map[Loc]int)}
}

func (z *refSummarizer) Reset() {
	z.sum = Summary{}
	clear(z.inIdx)
	clear(z.outIdx)
	z.started = false
	z.inReg, z.inMem, z.outReg, z.outMem = 0, 0, 0, 0
}

func (z *refSummarizer) Seed(s *Summary) {
	z.Reset()
	z.sum.StartPC = s.StartPC
	z.sum.Next = s.Next
	z.sum.Len = s.Len
	z.sum.Ins = append(z.sum.Ins, s.Ins...)
	z.sum.Outs = append(z.sum.Outs, s.Outs...)
	for i, r := range z.sum.Ins {
		z.inIdx[r.Loc] = i
	}
	for i, r := range z.sum.Outs {
		z.outIdx[r.Loc] = i
	}
	z.inReg, z.inMem = refCounts(z.sum.Ins)
	z.outReg, z.outMem = refCounts(z.sum.Outs)
	z.started = true
}

func (z *refSummarizer) TryAdd(e *Exec, caps Caps) bool {
	if e.SideEffect {
		return false
	}
	var stagedIns, stagedOuts []Ref
	for _, r := range e.Inputs() {
		if _, written := z.outIdx[r.Loc]; written {
			continue
		}
		if _, seen := z.inIdx[r.Loc]; seen {
			continue
		}
		if locIndex(stagedIns, r.Loc) < 0 {
			stagedIns = append(stagedIns, r)
		}
	}
	for _, r := range e.Outputs() {
		if _, seen := z.outIdx[r.Loc]; !seen && locIndex(stagedOuts, r.Loc) < 0 {
			stagedOuts = append(stagedOuts, r)
		}
	}
	if !z.commit(stagedIns, stagedOuts, caps, e.PC) {
		return false
	}
	for _, r := range e.Outputs() {
		z.sum.Outs[z.outIdx[r.Loc]].Val = r.Val
	}
	z.sum.Len++
	z.sum.Next = e.Next
	return true
}

func (z *refSummarizer) TryMerge(s *Summary, caps Caps) bool {
	var stagedIns, stagedOuts []Ref
	for _, r := range s.Ins {
		if _, written := z.outIdx[r.Loc]; written {
			continue
		}
		if _, seen := z.inIdx[r.Loc]; seen {
			continue
		}
		stagedIns = append(stagedIns, r)
	}
	for _, r := range s.Outs {
		if _, seen := z.outIdx[r.Loc]; !seen {
			stagedOuts = append(stagedOuts, r)
		}
	}
	if !z.commit(stagedIns, stagedOuts, caps, s.StartPC) {
		return false
	}
	for _, r := range s.Outs {
		z.sum.Outs[z.outIdx[r.Loc]].Val = r.Val
	}
	z.sum.Len += s.Len
	z.sum.Next = s.Next
	return true
}

// commit applies staged live-ins and outputs unless a cap is exceeded.
func (z *refSummarizer) commit(ins, outs []Ref, caps Caps, startPC uint64) bool {
	addInReg, addInMem := refCounts(ins)
	addOutReg, addOutMem := refCounts(outs)
	if exceeds(z.inReg+addInReg, caps.InReg) || exceeds(z.inMem+addInMem, caps.InMem) ||
		exceeds(z.outReg+addOutReg, caps.OutReg) || exceeds(z.outMem+addOutMem, caps.OutMem) {
		return false
	}
	if !z.started {
		z.sum.StartPC = startPC
		z.started = true
	}
	for _, r := range ins {
		z.inIdx[r.Loc] = len(z.sum.Ins)
		z.sum.Ins = append(z.sum.Ins, r)
	}
	for _, r := range outs {
		z.outIdx[r.Loc] = len(z.sum.Outs)
		z.sum.Outs = append(z.sum.Outs, r)
	}
	z.inReg += addInReg
	z.inMem += addInMem
	z.outReg += addOutReg
	z.outMem += addOutMem
	return true
}

func (z *refSummarizer) Summary() Summary {
	s := z.sum
	s.Ins = append([]Ref(nil), z.sum.Ins...)
	s.Outs = append([]Ref(nil), z.sum.Outs...)
	return s
}
