package trace

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// randLoc draws from a pool small enough that runs keep revisiting
// locations and large enough that unlimited runs outgrow the scan.
func randLoc(rng *rand.Rand) Loc {
	switch rng.Intn(3) {
	case 0:
		return IntReg(uint8(rng.Intn(30)))
	case 1:
		return FPReg(uint8(rng.Intn(30)))
	default:
		return Mem(uint64(rng.Intn(40)))
	}
}

func randExec(rng *rand.Rand, pc uint64) Exec {
	var e Exec
	e.PC, e.Next = pc, pc+1
	e.SideEffect = rng.Intn(40) == 0
	for i, n := 0, rng.Intn(4); i < n; i++ {
		e.AddIn(randLoc(rng), uint64(rng.Intn(4)))
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		e.AddOut(randLoc(rng), uint64(rng.Intn(4)))
	}
	return e
}

// randSummary summarises a random run of up to maxLen instructions with
// the reference implementation.
func randSummary(rng *rand.Rand, maxLen int) Summary {
	ref := newRefSummarizer()
	pc := uint64(rng.Intn(1000))
	for i, n := 0, 1+rng.Intn(maxLen); i < n; i++ {
		e := randExec(rng, pc+uint64(i))
		e.SideEffect = false
		ref.TryAdd(&e, Unlimited)
	}
	return ref.Summary()
}

func sameSummary(a, b Summary) bool {
	return a.StartPC == b.StartPC && a.Next == b.Next && a.Len == b.Len &&
		slices.Equal(a.Ins, b.Ins) && slices.Equal(a.Outs, b.Outs)
}

// TestSummarizerMatchesMapReference drives the scan-then-index Summarizer
// and the original map-indexed one through the same random operation
// streams — TryAdd, TryMerge, Seed and Reset — under unlimited,
// RTM-format and tiny caps, and requires identical answers and
// summaries after every step.
func TestSummarizerMatchesMapReference(t *testing.T) {
	capSets := []Caps{
		Unlimited,
		{InReg: 8, InMem: 4, OutReg: 8, OutMem: 4},
		{InReg: 1, InMem: 1, OutReg: 1, OutMem: 1},
		{InReg: 2, InMem: 0, OutReg: 1, OutMem: 0},
	}
	for ci, caps := range capSets {
		t.Run(fmt.Sprintf("caps%d", ci), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(ci) + 1))
			var z Summarizer
			ref := newRefSummarizer()
			indexedRuns := 0
			var pc uint64
			for step := 0; step < 20000; step++ {
				var op string
				switch k := rng.Intn(100); {
				case k < 3:
					op = "Reset"
					z.Reset()
					ref.Reset()
				case k < 6:
					op = "Seed"
					s := randSummary(rng, 30)
					z.Seed(&s)
					ref.Seed(&s)
				case k < 12:
					op = "TryMerge"
					s := randSummary(rng, 6)
					if got, want := z.TryMerge(&s, caps), ref.TryMerge(&s, caps); got != want {
						t.Fatalf("step %d: TryMerge = %v, reference %v", step, got, want)
					}
				default:
					op = "TryAdd"
					e := randExec(rng, pc)
					pc++
					if got, want := z.TryAdd(&e, caps), ref.TryAdd(&e, caps); got != want {
						t.Fatalf("step %d: TryAdd(%v) = %v, reference %v", step, &e, got, want)
					}
				}
				if z.indexed {
					indexedRuns++
				}
				if got, want := z.View(), ref.sum; !sameSummary(got, want) {
					t.Fatalf("step %d (%s): summary\n got %+v\nwant %+v", step, op, got, want)
				}
				if z.Empty() != (ref.sum.Len == 0) {
					t.Fatalf("step %d (%s): Empty = %v", step, op, z.Empty())
				}
			}
			if caps == Unlimited && indexedRuns == 0 {
				t.Error("no run crossed the scan-to-index threshold; the map path went untested")
			}
		})
	}
}

// TestSummarizeRunMatchesReference checks the one-shot path, including
// runs long enough to index.
func TestSummarizeRunMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		run := make([]Exec, 1+rng.Intn(80))
		ref := newRefSummarizer()
		for i := range run {
			run[i] = randExec(rng, uint64(i))
			run[i].SideEffect = false
			ref.TryAdd(&run[i], Unlimited)
		}
		if got, want := SummarizeRun(run), ref.Summary(); !sameSummary(got, want) {
			t.Fatalf("trial %d: SummarizeRun\n got %+v\nwant %+v", trial, got, want)
		}
	}
}

// TestSummarizerCycleAllocatesNothing pins the RTM collector's hot path:
// once warm, a TryAdd/Reset cycle within the scan size does not allocate.
func TestSummarizerCycleAllocatesNothing(t *testing.T) {
	caps := Caps{InReg: 8, InMem: 4, OutReg: 8, OutMem: 4}
	rng := rand.New(rand.NewSource(3))
	run := make([]Exec, 12)
	for i := range run {
		run[i] = randExec(rng, uint64(i))
		run[i].SideEffect = false
	}
	var z Summarizer
	cycle := func() {
		z.Reset()
		for i := range run {
			z.TryAdd(&run[i], caps)
		}
	}
	cycle()
	if z.indexed {
		t.Fatal("capped run reached the index; the test no longer measures the scan")
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("TryAdd/Reset cycle allocates %.1f times, want 0", n)
	}
}
