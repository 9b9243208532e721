package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"github.com/tracereuse/tlr"
)

// The generator turns a workload name and a seed into a deterministic
// sequence of operations.  It depends on nothing measured at run time:
// the same seed yields the same sequence however fast the program
// answers, and callers only decide how far into it a run gets.

// Operation classes.
const (
	classRead   = "read"   // a simulation request (Batcher.Run or POST /v1/run)
	classUpload = "upload" // POST /v1/traces with a fresh v4 recording
	classIngest = "ingest" // POST /v1/ingest with a fresh CSV trace
)

// op is one generated operation.
type op struct {
	Index int
	Class string

	// Read operations.
	Kind   tlr.Kind
	Prog   string // built-in program (sweep-live)
	Base   int    // base recording (replay-mem, disk-churn)
	Skip   uint64
	Budget uint64
	Study  *tlr.StudyConfig
	RTM    *tlr.RTMConfig
	VP     *tlr.VPConfig
	Pipe   *tlr.PipelineConfig
	Repeat int // index of the earlier op this one repeats; -1 if none

	// Write operations: index into the pre-generated payloads of Class.
	Write int
}

// baseSpec is one base recording: a built-in program recorded from its
// first instruction.
type baseSpec struct {
	Prog    string
	Records uint64
}

// workloadSpec holds everything about a workload that is not drawn
// from the seed.
type workloadSpec struct {
	Name string
	// Tail is the latency percentile reported as latency_tail_ms.
	Tail float64
	// Bases are the recordings the server holds (none for sweep-live).
	Bases []baseSpec
	// MinWindow and MaxWindow bound read windows (log-uniform).
	MinWindow, MaxWindow uint64
	// DeepSkip is the least fraction of a recording a read skips.
	DeepSkip float64
	// Kinds are the read kinds, drawn uniformly.
	Kinds []tlr.Kind
	// RepeatShare is the share of operations that repeat an earlier read.
	RepeatShare float64
	// WriteShare is the share of operations that are writes, alternating
	// between uploads and ingests.
	WriteShare float64
}

// programs are the 14 built-in programs, in registry order.
func programs() []string {
	var out []string
	for _, w := range tlr.Workloads() {
		out = append(out, w.Name)
	}
	return out
}

// sweepWindow is the base window per kind for sweep-live, chosen so a
// cell of any kind costs roughly the same (0.1–0.2 s on a 2 GHz core):
// the study and RTM engines cost about 5x vp and 10x pipeline per record.
var sweepWindow = map[tlr.Kind]uint64{
	tlr.KindStudy:    200_000,
	tlr.KindRTM:      200_000,
	tlr.KindAnalyze:  300_000,
	tlr.KindVP:       1_000_000,
	tlr.KindPipeline: 1_000_000,
}

// sweepMaxSkip bounds the seeded warm-up skip of a sweep-live cell.
const sweepMaxSkip = 500_000

var specs = map[string]workloadSpec{
	"sweep-live": {
		Name:  "sweep-live",
		Tail:  0.95,
		Kinds: []tlr.Kind{tlr.KindStudy, tlr.KindRTM, tlr.KindVP, tlr.KindAnalyze, tlr.KindPipeline},
	},
	"replay-mem": {
		Name: "replay-mem",
		Tail: 0.99,
		Bases: []baseSpec{
			{"gcc", 1_500_000}, {"tomcatv", 1_500_000}, {"li", 1_500_000},
		},
		MinWindow: 1_000, MaxWindow: 20_000,
		Kinds:       []tlr.Kind{tlr.KindStudy, tlr.KindRTM, tlr.KindVP, tlr.KindAnalyze},
		RepeatShare: 0.10,
	},
	"disk-churn": {
		Name: "disk-churn",
		Tail: 0.95,
		Bases: []baseSpec{
			{"compress", 1_500_000}, {"su2cor", 1_500_000},
		},
		MinWindow: 5_000, MaxWindow: 20_000,
		DeepSkip:   0.25,
		Kinds:      []tlr.Kind{tlr.KindAnalyze, tlr.KindStudy},
		WriteShare: 0.25,
	},
}

// repeatHorizon bounds how far back a repeat may reach, so its original
// is still in the server's result cache (4096 entries by default).
// repeatGap keeps a repeat well behind its original in the sequence, so
// callers rarely have to wait for the original to finish (see
// stage.issue).
const (
	repeatHorizon = 256
	repeatGap     = 32
)

// generator yields a workload's operations in order.  It is safe for
// concurrent use; op(i) is the same for a given seed whatever order
// callers ask in.
type generator struct {
	spec   workloadSpec
	rng    *rand.Rand
	progs  []string
	writes int // pre-generated payloads per write class

	mu     sync.Mutex
	ops    []op
	seen   map[string]bool
	nWrite int
	grid   []op // sweep-live: the current round's cells, in order
}

func newGenerator(spec workloadSpec, seed int64, writes int) *generator {
	return &generator{
		spec:   spec,
		rng:    rand.New(rand.NewSource(seed)),
		progs:  programs(),
		writes: writes,
		seen:   map[string]bool{},
	}
}

// op returns operation i, generating the sequence up to it.
func (g *generator) op(i int) op {
	g.mu.Lock()
	defer g.mu.Unlock()
	for len(g.ops) <= i {
		o := g.next()
		o.Index = len(g.ops)
		g.ops = append(g.ops, o)
	}
	return g.ops[i]
}

func (g *generator) next() op {
	if g.spec.Name == "sweep-live" {
		return g.nextCell()
	}
	n := len(g.ops)
	if g.spec.WriteShare > 0 && g.rng.Float64() < g.spec.WriteShare && g.nWrite < 2*g.writes {
		class := classUpload
		if g.nWrite%2 == 1 {
			class = classIngest
		}
		o := op{Class: class, Write: g.nWrite / 2, Repeat: -1}
		g.nWrite++
		return o
	}
	if g.spec.RepeatShare > 0 && g.rng.Float64() < g.spec.RepeatShare {
		// Repeat a recent first-time read, so its answer is cached.
		for try := 0; try < 8; try++ {
			lo, hi := max(0, n-repeatHorizon), n-repeatGap
			if lo >= hi {
				break
			}
			j := lo + g.rng.Intn(hi-lo)
			if o := g.ops[j]; o.Class == classRead && o.Repeat < 0 {
				o.Repeat = j
				return o
			}
		}
	}
	for {
		o := g.read()
		if k := o.key(); !g.seen[k] {
			g.seen[k] = true
			return o
		}
	}
}

// read draws a first-time read over one base recording.
func (g *generator) read() op {
	s := g.spec
	o := op{Class: classRead, Repeat: -1}
	o.Kind = s.Kinds[g.rng.Intn(len(s.Kinds))]
	o.Base = g.rng.Intn(len(s.Bases))
	o.Budget = logUniform(g.rng, s.MinWindow, s.MaxWindow)
	n := s.Bases[o.Base].Records
	lo := uint64(float64(n) * s.DeepSkip)
	o.Skip = lo + uint64(g.rng.Int63n(int64(n-o.Budget-lo+1)))
	g.configure(&o)
	return o
}

// nextCell returns the next sweep-live cell.  Cells come in rounds: each
// round is the whole grid of programs × kinds in a seeded order, so
// every run, whatever its length, sees nearly the same mix.
func (g *generator) nextCell() op {
	if len(g.grid) == 0 {
		for _, p := range g.progs {
			for _, k := range g.spec.Kinds {
				g.grid = append(g.grid, op{Class: classRead, Kind: k, Prog: p, Repeat: -1})
			}
		}
		g.rng.Shuffle(len(g.grid), func(i, j int) { g.grid[i], g.grid[j] = g.grid[j], g.grid[i] })
	}
	o := g.grid[0]
	g.grid = g.grid[1:]
	o.Budget = uint64(float64(sweepWindow[o.Kind]) * (0.9 + 0.2*g.rng.Float64()))
	g.configure(&o)
	for {
		o.Skip = uint64(g.rng.Int63n(sweepMaxSkip))
		if k := o.key(); !g.seen[k] {
			g.seen[k] = true
			return o
		}
	}
}

// The paper's RTM geometries and collection heuristics (Figure 9).
var (
	geometries = []tlr.Geometry{tlr.Geometry512, tlr.Geometry4K, tlr.Geometry32K, tlr.Geometry256K}
	heuristics = []tlr.RTMConfig{
		{Heuristic: tlr.ILRNE}, {Heuristic: tlr.ILREXP},
		{Heuristic: tlr.IEXP, N: 2}, {Heuristic: tlr.IEXP, N: 4}, {Heuristic: tlr.IEXP, N: 8},
	}
)

// configure draws the kind's configuration.
func (g *generator) configure(o *op) {
	switch o.Kind {
	case tlr.KindStudy:
		o.Study = &tlr.StudyConfig{}
		if g.rng.Intn(2) == 0 {
			o.Study.ILPWindows = []int{64, 256}
		}
	case tlr.KindRTM:
		c := heuristics[g.rng.Intn(len(heuristics))]
		c.Geometry = geometries[g.rng.Intn(len(geometries))]
		o.RTM = &c
	case tlr.KindVP:
		o.VP = &tlr.VPConfig{Window: []int{0, 256}[g.rng.Intn(2)]}
	case tlr.KindAnalyze:
	case tlr.KindPipeline:
		o.Pipe = &tlr.PipelineConfig{}
		if g.rng.Intn(2) == 0 {
			o.Pipe.RTM = &tlr.RTMConfig{Geometry: tlr.Geometry4K, Heuristic: tlr.ILRNE}
		}
	}
}

// key identifies a read's simulation, so first-time reads never share
// a result-cache entry.
func (o op) key() string {
	return fmt.Sprintf("%s|%s|%d|%d|%d|%+v|%+v|%+v|%+v", o.Kind, o.Prog, o.Base, o.Skip, o.Budget, o.Study, o.RTM, o.VP, o.Pipe)
}

// request builds the op's request.  digests maps base recordings to
// their content digests; with nil, the caller sets the Trace.  A repeat
// carries the ID of its original, so both answers encode identically
// apart from the cached flag.
func (o op) request(digests []string) tlr.Request {
	id := o.Index
	if o.Repeat >= 0 {
		id = o.Repeat
	}
	r := tlr.Request{ID: fmt.Sprint(id), Skip: o.Skip, Budget: o.Budget}
	if o.Prog != "" {
		r.Workload = o.Prog
	} else if digests != nil {
		r.Trace = tlr.TraceRef(digests[o.Base])
	}
	switch o.Kind {
	case tlr.KindStudy:
		s := *o.Study
		r.Study = &s
	case tlr.KindRTM:
		c := *o.RTM
		r.RTM = &c
	case tlr.KindVP:
		v := *o.VP
		r.VP = &v
	case tlr.KindAnalyze:
		r.Analyze = &tlr.AnalyzeConfig{}
	case tlr.KindPipeline:
		p := *o.Pipe
		r.Pipeline = &p
	}
	return r
}

// logUniform draws from [lo, hi] with a uniform logarithm.
func logUniform(r *rand.Rand, lo, hi uint64) uint64 {
	l, h := math.Log(float64(lo)), math.Log(float64(hi))
	return uint64(math.Exp(l + r.Float64()*(h-l)))
}
