package trace

// Summary is the reuse-relevant identity of a trace (a dynamic run of
// instructions): its live-in references, its final outputs, and its next
// PC.  It corresponds to one RTM entry of the paper's Figure 1.
//
// Ins holds the locations read before being written inside the run, with
// the values observed at first read, in first-read order (the paper's
// IL(T)/IV(T)).  Outs holds every location written, with its final value,
// in first-write order (OL(T)/OV(T)).
type Summary struct {
	StartPC uint64
	Next    uint64
	Len     int
	Ins     []Ref
	Outs    []Ref
}

// InCounts returns how many live-in references are registers and how many
// are memory words.
func (s *Summary) InCounts() (regs, mems int) { return refCounts(s.Ins) }

// OutCounts returns how many output references are registers and how many
// are memory words.
func (s *Summary) OutCounts() (regs, mems int) { return refCounts(s.Outs) }

func refCounts(refs []Ref) (regs, mems int) {
	for _, r := range refs {
		if r.Loc.IsMem() {
			mems++
		} else {
			regs++
		}
	}
	return regs, mems
}

// Caps bounds a Summary per the RTM entry format: at most InReg/InMem
// live-in registers/memory words and OutReg/OutMem outputs.  Negative
// fields mean unlimited.
type Caps struct {
	InReg, InMem, OutReg, OutMem int
}

// Unlimited places no bound on trace inputs or outputs (limit study).
var Unlimited = Caps{InReg: -1, InMem: -1, OutReg: -1, OutMem: -1}

// indexThreshold is the run size, in references on either side, past
// which a Summarizer indexes its locations in maps instead of scanning
// Ins and Outs.  RTM entries are capped at 12 references per side
// (DefaultCaps), so trace collection always scans; only long, unbounded
// limit-study runs build the index.
const indexThreshold = 16

// Summarizer incrementally computes the Summary of a run of instructions.
// It is the building block of both the limit-study trace partitioner and
// the RTM trace collector; the collector additionally enforces the RTM's
// input/output capacity limits by passing finite Caps to TryAdd.
//
// Locations are found by a linear scan of the run's Ins and Outs until a
// side grows past indexThreshold, when the Summarizer switches to two
// location-to-position maps.  Reset keeps the storage (slices and maps),
// so a reused Summarizer allocates nothing for runs within the scan size.
// The zero value is an empty Summarizer.
type Summarizer struct {
	sum     Summary
	indexed bool        // inIdx/outIdx are current; otherwise scan
	inIdx   map[Loc]int // location -> index in sum.Ins
	outIdx  map[Loc]int // location -> index in sum.Outs
	started bool

	inReg, inMem, outReg, outMem int
}

// Reset clears the Summarizer for a new run, keeping its storage.
func (z *Summarizer) Reset() {
	z.sum = Summary{Ins: z.sum.Ins[:0], Outs: z.sum.Outs[:0]}
	z.indexed = false
	z.started = false
	z.inReg, z.inMem, z.outReg, z.outMem = 0, 0, 0, 0
}

// Seed initialises the Summarizer from an existing Summary, as when the RTM
// expands a previously stored trace (heuristics ILR EXP and I(n) EXP).
func (z *Summarizer) Seed(s *Summary) {
	z.Reset()
	z.sum.StartPC = s.StartPC
	z.sum.Next = s.Next
	z.sum.Len = s.Len
	z.sum.Ins = append(z.sum.Ins, s.Ins...)
	z.sum.Outs = append(z.sum.Outs, s.Outs...)
	z.inReg, z.inMem = refCounts(z.sum.Ins)
	z.outReg, z.outMem = refCounts(z.sum.Outs)
	z.started = true
	if max(len(z.sum.Ins), len(z.sum.Outs)) > indexThreshold {
		z.buildIndex()
	}
}

// Len returns the number of instructions summarised so far.
func (z *Summarizer) Len() int { return z.sum.Len }

// NextPC returns the PC following the last summarised instruction.
func (z *Summarizer) NextPC() uint64 { return z.sum.Next }

// StartPC returns the PC of the first summarised instruction.
func (z *Summarizer) StartPC() uint64 { return z.sum.StartPC }

// Empty reports whether no instruction has been added.
func (z *Summarizer) Empty() bool { return z.sum.Len == 0 }

// Add extends the run with e with no capacity limits.  It panics if e has a
// side effect; limit-study callers never pass those.
func (z *Summarizer) Add(e *Exec) {
	if !z.TryAdd(e, Unlimited) {
		panic("trace: Summarizer.Add rejected a side-effecting instruction")
	}
}

// TryAdd extends the run with e unless e is side-effecting or a cap would
// be exceeded.  On rejection the Summarizer is unchanged.
func (z *Summarizer) TryAdd(e *Exec, caps Caps) bool {
	if e.SideEffect {
		return false // side effects can never be replayed from a table
	}
	if !z.extend(e.Inputs(), e.Outputs(), caps, e.PC) {
		return false
	}
	z.sum.Len++
	z.sum.Next = e.Next
	return true
}

// extend appends to the run a segment (one instruction or a whole trace)
// that reads ins and writes outs, starting at startPC: the reads not
// produced inside the run become new live-ins, the writes to new
// locations new outputs, and every write leaves its value as the
// location's output.  New references are staged at the tail of Ins and
// Outs, so a cap violation only truncates them away and leaves the
// Summarizer unchanged.
func (z *Summarizer) extend(ins, outs []Ref, caps Caps, startPC uint64) bool {
	i0, o0 := len(z.sum.Ins), len(z.sum.Outs)
	for _, r := range ins {
		if z.outPos(r.Loc) < 0 && z.inPos(r.Loc) < 0 && locIndex(z.sum.Ins[i0:], r.Loc) < 0 {
			z.sum.Ins = append(z.sum.Ins, r)
		}
	}
	for _, r := range outs {
		if z.outPos(r.Loc) < 0 && locIndex(z.sum.Outs[o0:], r.Loc) < 0 {
			z.sum.Outs = append(z.sum.Outs, r)
		}
	}
	addInReg, addInMem := refCounts(z.sum.Ins[i0:])
	addOutReg, addOutMem := refCounts(z.sum.Outs[o0:])
	if exceeds(z.inReg+addInReg, caps.InReg) || exceeds(z.inMem+addInMem, caps.InMem) ||
		exceeds(z.outReg+addOutReg, caps.OutReg) || exceeds(z.outMem+addOutMem, caps.OutMem) {
		z.sum.Ins, z.sum.Outs = z.sum.Ins[:i0], z.sum.Outs[:o0]
		return false
	}
	if !z.started {
		z.sum.StartPC = startPC
		z.started = true
	}
	z.inReg += addInReg
	z.inMem += addInMem
	z.outReg += addOutReg
	z.outMem += addOutMem
	switch {
	case z.indexed:
		for i := i0; i < len(z.sum.Ins); i++ {
			z.inIdx[z.sum.Ins[i].Loc] = i
		}
		for i := o0; i < len(z.sum.Outs); i++ {
			z.outIdx[z.sum.Outs[i].Loc] = i
		}
	case max(len(z.sum.Ins), len(z.sum.Outs)) > indexThreshold:
		z.buildIndex()
	}
	// Writes to already-known output locations take the newest value.
	for _, r := range outs {
		z.sum.Outs[z.outPos(r.Loc)].Val = r.Val
	}
	return true
}

// inPos returns the index of l in Ins, or -1.
func (z *Summarizer) inPos(l Loc) int {
	if !z.indexed {
		return locIndex(z.sum.Ins, l)
	}
	if i, ok := z.inIdx[l]; ok {
		return i
	}
	return -1
}

// outPos returns the index of l in Outs, or -1.
func (z *Summarizer) outPos(l Loc) int {
	if !z.indexed {
		return locIndex(z.sum.Outs, l)
	}
	if i, ok := z.outIdx[l]; ok {
		return i
	}
	return -1
}

// buildIndex switches the Summarizer from scanning to its maps, reusing
// the maps of an earlier long run.
func (z *Summarizer) buildIndex() {
	if z.inIdx == nil {
		z.inIdx = make(map[Loc]int, 4*indexThreshold)
		z.outIdx = make(map[Loc]int, 4*indexThreshold)
	} else {
		clear(z.inIdx)
		clear(z.outIdx)
	}
	for i, r := range z.sum.Ins {
		z.inIdx[r.Loc] = i
	}
	for i, r := range z.sum.Outs {
		z.outIdx[r.Loc] = i
	}
	z.indexed = true
}

// locIndex returns the index of the first reference to l in refs, or -1.
func locIndex(refs []Ref, l Loc) int {
	for i := range refs {
		if refs[i].Loc == l {
			return i
		}
	}
	return -1
}

func exceeds(n, limit int) bool { return limit >= 0 && n > limit }

// Summary returns a copy of the accumulated summary.
func (z *Summarizer) Summary() Summary {
	s := z.sum
	s.Ins = append([]Ref(nil), z.sum.Ins...)
	s.Outs = append([]Ref(nil), z.sum.Outs...)
	return s
}

// View returns the accumulated summary without copying: its Ins and Outs
// alias the Summarizer's storage and stay valid only until the next
// TryAdd, TryMerge, Seed or Reset.
func (z *Summarizer) View() Summary { return z.sum }

// SummarizeRun computes the Summary of a complete run in one call.
func SummarizeRun(run []Exec) Summary {
	var z Summarizer
	for i := range run {
		z.Add(&run[i])
	}
	return z.View() // z is local: nothing else will reuse its storage
}
