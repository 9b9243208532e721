package analytics

import (
	"testing"

	"github.com/tracereuse/tlr/internal/cpu"
	"github.com/tracereuse/tlr/internal/trace"
	"github.com/tracereuse/tlr/internal/workload"
)

// naiveAnalyzer is the brute-force O(n²) reference: one explicit LRU
// stack per class, distance = position in the stack.  The tree-based
// engine must match it bin for bin on every tested stream.
type naiveAnalyzer struct {
	records uint64
	stacks  [3][]trace.Loc // most recently used first
	hists   [3]Hist
}

func (a *naiveAnalyzer) consume(e *trace.Exec) {
	a.records++
	for _, r := range e.Inputs() {
		a.access(r.Loc)
	}
	for _, r := range e.Outputs() {
		a.access(r.Loc)
	}
}

func (a *naiveAnalyzer) access(l trace.Loc) {
	k := l.Kind()
	st := a.stacks[k]
	h := &a.hists[k]
	h.Accesses++
	pos := -1
	for i, x := range st {
		if x == l {
			pos = i
			break
		}
	}
	if pos < 0 {
		h.Cold++
		a.stacks[k] = append([]trace.Loc{l}, st...)
		return
	}
	h.Bins[BinOf(uint64(pos))]++
	copy(st[1:pos+1], st[:pos])
	st[0] = l
}

func (a *naiveAnalyzer) result() Result {
	res := Result{Records: a.records}
	for k := trace.KindIntReg; k <= trace.KindMem; k++ {
		h := a.hists[k]
		h.Distinct = uint64(len(a.stacks[k]))
		*res.Class(k) = h
	}
	return res
}

func TestBinOf(t *testing.T) {
	cases := []struct {
		d    uint64
		want int
	}{
		{0, 0}, {15, 0}, {16, 1}, {31, 1}, {32, 2}, {63, 2},
		{64, 3}, {127, 3}, {128, 4}, {255, 4}, {256, 5}, {1 << 40, 5},
	}
	for _, c := range cases {
		if got := BinOf(c.d); got != c.want {
			t.Errorf("BinOf(%d) = %d, want %d", c.d, got, c.want)
		}
	}
	for i := 0; i < NumBins; i++ {
		if BinLabel(i) == "" {
			t.Errorf("BinLabel(%d) is empty", i)
		}
	}
}

// TestSyntheticPatterns pins the distance semantics on streams whose
// histograms are known in closed form.
func TestSyntheticPatterns(t *testing.T) {
	rec := func(locs ...trace.Loc) *trace.Exec {
		e := &trace.Exec{}
		for _, l := range locs {
			e.AddIn(l, 0)
		}
		return e
	}

	t.Run("repeated single location", func(t *testing.T) {
		a := New()
		for i := 0; i < 100; i++ {
			a.Consume(rec(trace.Mem(7)))
		}
		m := a.Result().Mem
		if m.Cold != 1 || m.Bins[0] != 99 || m.Accesses != 100 || m.Distinct != 1 {
			t.Fatalf("repeated loc: %+v", m)
		}
	})

	t.Run("all distinct is all cold", func(t *testing.T) {
		a := New()
		for i := uint64(0); i < 500; i++ {
			a.Consume(rec(trace.Mem(i)))
		}
		m := a.Result().Mem
		if m.Cold != 500 || m.Distinct != 500 {
			t.Fatalf("distinct stream: %+v", m)
		}
		for i, b := range m.Bins {
			if b != 0 {
				t.Fatalf("bin %d = %d on an all-cold stream", i, b)
			}
		}
	})

	t.Run("cyclic sweep hits one bin", func(t *testing.T) {
		// Sweeping N locations round-robin: after the cold pass, every
		// access re-touches its location at distance exactly N-1.
		const n = 40 // distance 39 -> bin "32-63"
		a := New()
		for pass := 0; pass < 5; pass++ {
			for i := uint64(0); i < n; i++ {
				a.Consume(rec(trace.Mem(i)))
			}
		}
		m := a.Result().Mem
		if m.Cold != n || m.Bins[2] != 4*n {
			t.Fatalf("cyclic sweep: %+v", m)
		}
	})

	t.Run("classes are independent", func(t *testing.T) {
		// Interleaving classes must not perturb each class's distances:
		// r1 is re-accessed with only memory traffic in between.
		a := New()
		a.Consume(rec(trace.IntReg(1)))
		for i := uint64(0); i < 300; i++ {
			a.Consume(rec(trace.Mem(i)))
		}
		a.Consume(rec(trace.IntReg(1)))
		r := a.Result()
		if r.IntReg.Bins[0] != 1 {
			t.Fatalf("intreg distance polluted by mem accesses: %+v", r.IntReg)
		}
		if r.Mem.Cold != 300 {
			t.Fatalf("mem: %+v", r.Mem)
		}
	})
}

// TestMatchesBruteForceOnWorkloads proves the O(n log n) engine equal to
// the O(n²) reference across real workload grid cells: several
// workloads, several (skip, budget) windows each.
func TestMatchesBruteForceOnWorkloads(t *testing.T) {
	cells := []struct {
		workload string
		skip     uint64
		budget   uint64
	}{
		{"compress", 0, 4000},
		{"compress", 1000, 3000},
		{"li", 0, 4000},
		{"hydro2d", 0, 4000},
		{"hydro2d", 500, 2500},
	}
	for _, c := range cells {
		w, ok := workload.ByName(c.workload)
		if !ok {
			t.Fatalf("unknown workload %q", c.workload)
		}
		prog, err := w.Program()
		if err != nil {
			t.Fatal(err)
		}
		m := cpu.New(prog)
		if c.skip > 0 {
			if _, err := m.Run(c.skip, nil); err != nil {
				t.Fatal(err)
			}
		}
		fast := New()
		naive := &naiveAnalyzer{}
		if _, err := m.Run(c.budget, func(e *trace.Exec) {
			fast.Consume(e)
			naive.consume(e)
		}); err != nil {
			t.Fatal(err)
		}
		got, want := fast.Result(), naive.result()
		if got != want {
			t.Errorf("%s skip=%d budget=%d:\n tree  %+v\n naive %+v",
				c.workload, c.skip, c.budget, got, want)
		}
		if got.Records == 0 || got.IntReg.Accesses == 0 {
			t.Errorf("%s: degenerate stream: %+v", c.workload, got)
		}
	}
}

// TestCompactionPreservesDistances forces many timeline compactions with
// a small distinct set and checks against the reference, so the rebuild
// path is exercised, not just the steady state.
func TestCompactionPreservesDistances(t *testing.T) {
	fast := New()
	naive := &naiveAnalyzer{}
	// 64 distinct locations, ~200k accesses in a pseudo-random pattern:
	// the 1024-slot initial timeline compacts hundreds of times.
	x := uint64(12345)
	for i := 0; i < 100_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		e := &trace.Exec{}
		e.AddIn(trace.Mem(x%64), 0)
		e.AddIn(trace.IntReg(uint8(x>>32%16)), 0)
		fast.Consume(e)
		naive.consume(e)
	}
	if got, want := fast.Result(), naive.result(); got != want {
		t.Fatalf("compaction diverged:\n tree  %+v\n naive %+v", got, want)
	}
}

// TestTableGrowth checks a memory stream with more distinct words than
// several doublings of the location table, re-accessed at gaps on both
// sides of the bin-0 bypass (16) and of the last bin (256) and far
// back across the growths.
func TestTableGrowth(t *testing.T) {
	fast := New()
	naive := &naiveAnalyzer{}
	access := func(w uint64) {
		e := &trace.Exec{}
		e.AddIn(trace.Mem(w<<6), 0) // aligned words: every key shares its low bits
		fast.Consume(e)
		naive.consume(e)
	}
	gaps := []uint64{1, 14, 15, 16, 17, 18, 40, 254, 255, 256, 257, 300, 4500}
	const words = 6000
	for i := uint64(0); i < words; i++ {
		access(i)
		if g := gaps[i%uint64(len(gaps))]; g <= i {
			access(i - g)
		}
	}
	got, want := fast.Result(), naive.result()
	if got != want {
		t.Fatalf("table growth diverged:\n tree  %+v\n naive %+v", got, want)
	}
	if got.Mem.Distinct != words {
		t.Fatalf("distinct = %d, want %d", got.Mem.Distinct, words)
	}
	for _, b := range []int{0, 1, 4, 5} {
		if got.Mem.Bins[b] == 0 {
			t.Errorf("bin %s never hit: %+v", BinLabel(b), got.Mem)
		}
	}
}

// TestShortGapBoundary sweeps 16 and then 17 memory words round-robin,
// so every re-access lands at distance 15 or 16 — either side of the
// timestamp gap below which the tree is not queried.
func TestShortGapBoundary(t *testing.T) {
	for _, n := range []uint64{shortGap, shortGap + 1} {
		a := New()
		for pass := 0; pass < 3; pass++ {
			for i := uint64(0); i < n; i++ {
				e := &trace.Exec{}
				e.AddIn(trace.Mem(i), 0)
				a.Consume(e)
			}
		}
		m := a.Result().Mem
		if b := BinOf(n - 1); m.Cold != n || m.Bins[b] != 2*n {
			t.Errorf("%d-word sweep: want %d re-accesses in bin %s, got %+v", n, 2*n, BinLabel(b), m)
		}
	}
}

// TestRegisterSpill injects out-of-file register indices into a live
// stream: each register class must leave its move-to-front list for the
// general stack mid-stream without changing a distance.
func TestRegisterSpill(t *testing.T) {
	w, _ := workload.ByName("compress")
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	fast := New()
	naive := &naiveAnalyzer{}
	inject := func(e *trace.Exec) {
		fast.Consume(e)
		naive.consume(e)
	}
	n := 0
	if _, err := cpu.New(prog).Run(4000, func(e *trace.Exec) {
		inject(e)
		if n++; n == 1500 {
			// Touch registers 16-31 too, so the list the spill seeds
			// from is deeper than bin 0's 16 places.
			for r := uint8(16); r < 32; r++ {
				sweep := &trace.Exec{}
				sweep.AddIn(trace.IntReg(r), 0)
				inject(sweep)
			}
		}
		if n == 2000 || n == 3000 {
			odd := &trace.Exec{}
			odd.AddIn(trace.IntReg(40), 0)
			odd.AddIn(trace.FPReg(uint8(n/100+13)), 0)
			odd.AddOut(trace.IntReg(uint8(n/1000)), 0)
			inject(odd)
		}
	}); err != nil {
		t.Fatal(err)
	}
	got, want := fast.Result(), naive.result()
	if got != want {
		t.Fatalf("register spill diverged:\n fast  %+v\n naive %+v", got, want)
	}
	for k, rs := range fast.regs {
		if rs.spill == nil {
			t.Errorf("%s class never spilled", ClassLabel(trace.Kind(k)))
		}
	}
}

// TestSteadyStateAllocFree re-consumes a stream whose locations the
// Analyzer has already seen: with no table or tree growth left, the
// accesses and the compactions they trigger must not allocate.
func TestSteadyStateAllocFree(t *testing.T) {
	for _, name := range []string{"compress", "tomcatv"} {
		recs := record(t, name, 20_000)
		a := New()
		consume := func() {
			for j := range recs {
				a.Consume(&recs[j])
			}
		}
		consume()
		if allocs := testing.AllocsPerRun(3, consume); allocs != 0 {
			t.Errorf("%s: %.1f allocs per warmed pass, want 0", name, allocs)
		}
	}
}

// record returns the first n records of a workload's live execution.
func record(tb testing.TB, name string, n uint64) []trace.Exec {
	tb.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		tb.Fatalf("unknown workload %q", name)
	}
	prog, err := w.Program()
	if err != nil {
		tb.Fatal(err)
	}
	recs := make([]trace.Exec, 0, n)
	if _, err := cpu.New(prog).Run(n, func(e *trace.Exec) { recs = append(recs, *e) }); err != nil {
		tb.Fatal(err)
	}
	return recs
}

// BenchmarkAnalyzer times one fresh Analyzer over 200k records of an
// int-heavy (compress) and an fp/memory-heavy (tomcatv) workload, long
// enough that table growth and compaction run inside the timed loop.
func BenchmarkAnalyzer(b *testing.B) {
	for _, name := range []string{"compress", "tomcatv"} {
		b.Run(name, func(b *testing.B) {
			recs := record(b, name, 200_000)
			b.ReportAllocs()
			for b.Loop() {
				a := New()
				for j := range recs {
					a.Consume(&recs[j])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/record")
		})
	}
}
