// Package analytics computes exact LRU reuse-distance histograms over
// dynamic instruction streams — the figure every external-trace exemplar
// reports (binned stack distances: 0–15, 16–31, 32–63, 64–127, 128–255,
// 256+), broken down by operand-location class (integer registers,
// floating-point registers, memory words).
//
// The reuse distance of an access is the number of *distinct* locations
// of the same class touched since the previous access to the same
// location (0 = immediately re-accessed); a location's first access is
// "cold" and carries no distance.  Each class keeps its own exact LRU
// stack, in one of two forms:
//
//   - Register classes hold at most isa.NumRegs locations, so their stack
//     is a move-to-front list of register numbers and a re-access's
//     distance is its list position: no tree, no hashing.
//   - Memory (and a register class that meets an index outside the
//     register file, which only a malformed stream names) uses the
//     Bennett–Kruskal construction: a Fenwick tree over last-access
//     timestamps holds a marker at each location's most recent access,
//     and the distance of a re-access is the count of markers strictly
//     between the two accesses — O(log n) per access.  An open-addressed
//     table maps each location to its timestamp.  A re-access at most 16
//     timestamps after the previous one has fewer than 16 markers
//     between, so it is binned 0 without counting them.
//
// The naive O(n²) stack scan exists only in the package tests, as the
// reference both forms are proven against.
package analytics

import (
	"github.com/tracereuse/tlr/internal/isa"
	"github.com/tracereuse/tlr/internal/trace"
)

// NumBins is the number of finite histogram bins; accesses at distance
// 256 and beyond share the last bin, and cold (first-touch) accesses
// are counted separately.
const NumBins = 6

var binLabels = [NumBins]string{"0-15", "16-31", "32-63", "64-127", "128-255", "256+"}

// BinLabel returns the human label of a histogram bin ("0-15" … "256+").
func BinLabel(i int) string { return binLabels[i] }

// BinOf maps an exact reuse distance onto its histogram bin.
func BinOf(d uint64) int {
	switch {
	case d < 16:
		return 0
	case d < 32:
		return 1
	case d < 64:
		return 2
	case d < 128:
		return 3
	case d < 256:
		return 4
	default:
		return 5
	}
}

// ClassLabel names an operand-location class (indexed by trace.Kind).
func ClassLabel(k trace.Kind) string {
	switch k {
	case trace.KindIntReg:
		return "int-reg"
	case trace.KindFPReg:
		return "fp-reg"
	default:
		return "mem"
	}
}

// Hist is one operand-location class's binned reuse-distance histogram.
type Hist struct {
	// Accesses is the total operand accesses of this class (inputs and
	// outputs), Cold the first touches among them; the finite Bins
	// partition the remaining Accesses-Cold re-accesses.
	Accesses uint64          `json:"accesses"`
	Cold     uint64          `json:"cold"`
	Bins     [NumBins]uint64 `json:"bins"`
	// Distinct is the number of distinct locations of the class touched
	// over the whole stream.
	Distinct uint64 `json:"distinct"`
}

// Result is a completed reuse-distance analysis: one histogram per
// operand-location class over Records consumed records.
type Result struct {
	Records uint64 `json:"records"`
	IntReg  Hist   `json:"intReg"`
	FPReg   Hist   `json:"fpReg"`
	Mem     Hist   `json:"mem"`
}

// Class returns the histogram of one operand-location class.
func (r *Result) Class(k trace.Kind) *Hist {
	switch k {
	case trace.KindIntReg:
		return &r.IntReg
	case trace.KindFPReg:
		return &r.FPReg
	default:
		return &r.Mem
	}
}

// Analyzer consumes a dynamic instruction stream and accumulates the
// per-class reuse-distance histograms.  It is not safe for concurrent
// use; each analysis pass gets its own Analyzer.
type Analyzer struct {
	records uint64
	regs    [2]regStack // indexed by trace.KindIntReg, trace.KindFPReg
	mem     distStack
	hists   [3]Hist
}

// New returns an empty Analyzer.
func New() *Analyzer {
	a := &Analyzer{}
	a.mem.init()
	return a
}

// Consume observes one executed record: every operand reference —
// inputs in read order, then outputs in write order — is one access to
// its location's class stack.
func (a *Analyzer) Consume(e *trace.Exec) {
	a.records++
	for _, r := range e.Inputs() {
		a.access(r.Loc)
	}
	for _, r := range e.Outputs() {
		a.access(r.Loc)
	}
}

// cold is the bin the stacks report for a location's first access.
const cold = -1

func (a *Analyzer) access(l trace.Loc) {
	k := l.Kind()
	var bin int
	if k == trace.KindMem {
		bin = a.mem.access(l.Index())
	} else {
		bin = a.regs[k].access(l.Index())
	}
	h := &a.hists[k]
	h.Accesses++
	if bin == cold {
		h.Cold++
	} else {
		h.Bins[bin]++
	}
}

// Result returns the analysis so far.  The Analyzer remains usable, so
// a caller can snapshot mid-stream.
func (a *Analyzer) Result() Result {
	res := Result{Records: a.records}
	for k := trace.KindIntReg; k <= trace.KindMem; k++ {
		h := a.hists[k]
		if k == trace.KindMem {
			h.Distinct = uint64(a.mem.n)
		} else {
			h.Distinct = a.regs[k].distinct()
		}
		*res.Class(k) = h
	}
	return res
}

// regStack is the LRU stack of one register class: a move-to-front list
// of register numbers, most recently used first, so a re-access's
// distance is its position in the list.  A register index at or beyond
// isa.NumRegs — only a malformed stream names one, but a canonical trace
// file can carry it — spills the class, once, into a general distStack
// seeded with the list's registers oldest first, which keeps every
// later distance exact.
type regStack struct {
	order [isa.NumRegs]uint8 // order[:n]: registers seen, most recent first
	n     int
	spill *distStack // non-nil once the class has spilled
}

// access records one access to register r and returns its bin, or cold.
func (s *regStack) access(r uint64) int {
	if s.spill == nil {
		if r < isa.NumRegs {
			return s.moveToFront(uint8(r))
		}
		s.spill = &distStack{}
		s.spill.init()
		for i := s.n - 1; i >= 0; i-- {
			s.spill.access(uint64(s.order[i]))
		}
	}
	return s.spill.access(r)
}

// moveToFront moves r to the head of the list, shifting the registers
// ahead of it back one place in the same pass that finds it.
func (s *regStack) moveToFront(r uint8) int {
	prev := r
	for p := 0; p < s.n; p++ {
		cur := s.order[p]
		s.order[p] = prev
		if cur == r {
			return BinOf(uint64(p))
		}
		prev = cur
	}
	s.order[s.n] = prev
	s.n++
	return cold
}

func (s *regStack) distinct() uint64 {
	if s.spill != nil {
		return uint64(s.spill.n)
	}
	return uint64(s.n)
}

const (
	// distTableLog is log2 of the initial location-table slot count,
	// which is also the initial Fenwick timeline length.
	distTableLog = 10
	// shortGap bounds the timestamp gap of a bin-0 re-access found
	// without a tree query: accesses at most shortGap timestamps apart
	// have at most shortGap-1 markers between them, and bin 0 holds
	// every distance below 16.
	shortGap = 16
)

// distSlot is one open-addressed location-table slot; stamp 0 marks an
// empty slot (timestamps start at 1).
type distSlot struct {
	key   uint64 // location index within its class
	stamp uint64 // timestamp of the location's marker
}

// distStack tracks exact LRU stack distances for one location class.
//
// Every access gets a timestamp; a Fenwick tree over timestamps holds a
// marker at each location's most recent access.  On a re-access the
// distance is the number of markers strictly between the previous and
// the current timestamp — the distinct locations touched since — and
// the location's marker moves forward.  A re-access at most shortGap
// timestamps after the previous one is bin 0 whatever the count, so it
// only moves the marker.  The two prefix walks of a count, and the
// remove and insert walks of a move, run merged and stop where their
// paths meet, which for nearby timestamps is usually after a few nodes.
//
// When the timeline fills, live markers are compacted to the front
// (their relative order is all that matters), so the tree's size tracks
// the distinct-location count, not the stream length, and the amortised
// cost stays O(log n) per access.  The location→timestamp table is
// open-addressed with linear probing (core.sigTable's layout), kept at
// most half full.
type distStack struct {
	slots []distSlot // power-of-two capacity
	shift uint       // 64 - log2(len(slots)): Fibonacci-hash shift
	n     int        // live locations
	bit   []int32    // Fenwick tree, 1-based over timestamps
	t     uint64     // timestamps handed out since last compact
	owner []int      // compaction scratch: slot+1 by timestamp
}

func (s *distStack) init() {
	s.slots = make([]distSlot, 1<<distTableLog)
	s.shift = 64 - distTableLog
	s.bit = make([]int32, 1<<distTableLog)
}

// access records one access to location key and returns its bin, or
// cold for the location's first access.
func (s *distStack) access(key uint64) int {
	if s.t+1 >= uint64(len(s.bit)) {
		s.compact()
	}
	s.t++
	sl := s.find(key)
	tl := sl.stamp
	if tl == 0 {
		if 2*(s.n+1) > len(s.slots) {
			s.grow()
			sl = s.find(key)
		}
		s.n++
		*sl = distSlot{key: key, stamp: s.t}
		for i := s.t; i < uint64(len(s.bit)); i += i & -i {
			s.bit[i]++
		}
		return cold
	}
	sl.stamp = s.t
	bin := 0
	if s.t-tl > shortGap {
		bin = BinOf(s.between(tl, s.t))
	}
	s.move(tl, s.t)
	return bin
}

// find returns key's slot, or the empty slot where it belongs.
func (s *distStack) find(key uint64) *distSlot {
	mask := len(s.slots) - 1
	for i := int((key * 0x9e3779b97f4a7c15) >> s.shift); ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.stamp == 0 || sl.key == key {
			return sl
		}
	}
}

func (s *distStack) grow() {
	old := s.slots
	s.slots = make([]distSlot, 2*len(old))
	s.shift--
	for _, sl := range old {
		if sl.stamp != 0 {
			*s.find(sl.key) = sl
		}
	}
}

// between returns the number of markers at timestamps lo+1 .. hi-1,
// prefix(hi-1) - prefix(lo) summed until the two walks meet.
func (s *distStack) between(lo, hi uint64) uint64 {
	var sum int64
	for a, b := hi-1, lo; a != b; {
		if a > b {
			sum += int64(s.bit[a])
			a &= a - 1
		} else {
			sum -= int64(s.bit[b])
			b &= b - 1
		}
	}
	return uint64(sum)
}

// move shifts a marker from timestamp from to the later timestamp to.
// Past the node where the remove and insert walks meet, their -1 and +1
// cancel, so both stop there.
func (s *distStack) move(from, to uint64) {
	n := uint64(len(s.bit))
	for from != to {
		if from < to {
			if from >= n {
				return
			}
			s.bit[from]--
			from += from & -from
		} else {
			if to >= n {
				return
			}
			s.bit[to]++
			to += to & -to
		}
	}
}

// compact renumbers the live markers 1..m in timestamp order and
// rebuilds the tree, growing it when the live set no longer leaves
// headroom.  Order is preserved, so every future distance is unchanged.
// Live timestamps are unique and below len(bit), so placing each slot at
// its timestamp in owner sorts them in one pass.
func (s *distStack) compact() {
	if len(s.owner) < len(s.bit) {
		s.owner = make([]int, len(s.bit))
	}
	for i, sl := range s.slots {
		if sl.stamp != 0 {
			s.owner[sl.stamp] = i + 1
		}
	}
	m := 0
	for t := 1; t <= int(s.t); t++ {
		if o := s.owner[t]; o != 0 {
			m++
			s.slots[o-1].stamp = uint64(m)
			s.owner[t] = 0
		}
	}
	n := len(s.bit)
	for n < 2*(m+2) {
		n *= 2
	}
	if n > len(s.bit) {
		s.bit = make([]int32, n)
	}
	// Node i covers timestamps (i-lowbit(i), i]; markers fill 1..m.
	for i := 1; i < n; i++ {
		s.bit[i] = int32(min(i, m) - min(i-i&-i, m))
	}
	s.t = uint64(m)
}
