package trace

// TryMerge extends the run with a whole previously-summarised trace, as
// when the RTM merges two consecutively reused traces (heuristics ILR EXP
// and I(n) EXP).  The merged trace behaves as if s's instructions had been
// appended one by one: s's live-ins that are produced by the current run
// are internal, the rest become live-ins; s's outputs overwrite or extend
// the output list.  On cap violation the Summarizer is unchanged.
//
// Precondition (guaranteed at a reuse hit): s's live-in values equal the
// current architectural state, so any of its live-ins produced by this run
// carry the run's output values.
func (z *Summarizer) TryMerge(s *Summary, caps Caps) bool {
	if !z.extend(s.Ins, s.Outs, caps, s.StartPC) {
		return false
	}
	z.sum.Len += s.Len
	z.sum.Next = s.Next
	return true
}
