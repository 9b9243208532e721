package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/tracereuse/tlr"
	"github.com/tracereuse/tlr/internal/metrics"
)

// sweep-live: in-process configuration sweeps through tlr.Batcher over
// live program execution, the Figure 3–9 path.  Every cell is unique,
// so every call simulates.

// liveSetups is how many times a run sets up; setup_s is the median.
// A set-up here takes tens of milliseconds, so one stall of the machine
// can double it; seven set-ups keep the median clear of such stalls.
const liveSetups = 7

// liveSamples is how many cells the cross-source check re-runs on an
// in-memory recording.
const liveSamples = 3

func runSweepLive(cfg config) (*outcome, error) {
	ctx := context.Background()
	out := newOutcome()
	var (
		b      *tlr.Batcher
		gen    *generator
		setups []float64
	)
	reps := liveSetups
	if cfg.trace {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if b != nil {
			b.Close()
		}
		t := time.Now()
		b = tlr.NewBatcher(tlr.BatchOptions{Workers: cfg.nproc})
		gen = newGenerator(cfg.spec, cfg.seed, 0)
		gen.op(len(programs())*len(cfg.spec.Kinds) - 1)
		if err := warmLive(ctx, b); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer b.Close()

	before := scrapeBatcher(b)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rss := sampleRSS(os.Getpid())
	replies, elapsed := closedLoop(cfg.nproc, cfg.window, func(i int) reply {
		o := gen.op(i)
		t := time.Now()
		res, err := b.Run(ctx, o.request(nil))
		r := reply{op: o, latency: time.Since(t), status: 200}
		if err != nil {
			r.bad = fmt.Sprintf("op %d: %v", o.Index, err)
			return r
		}
		if r.body, err = res.MarshalJSON(); err != nil {
			r.bad = fmt.Sprintf("op %d: encode: %v", o.Index, err)
			return r
		}
		checkRead(&r)
		return r
	})
	runtime.ReadMemStats(&ms1)
	after := scrapeBatcher(b)
	rssMB, rssP90 := rss.finish()
	out.note("rss_p90_mb", "MB", rssP90)
	out.note("peak_rss_mb", "MB", statusMB(os.Getpid(), "VmHWM"))

	// Cross-source: a sampled live answer must equal the same request
	// replayed from an in-memory recording of the same window.
	check := tlr.NewBatcher(tlr.BatchOptions{Workers: cfg.nproc})
	defer check.Close()
	for _, r := range sample(replies, liveSamples, cfg.seed, func(o op) bool { return o.Kind != tlr.KindPipeline }) {
		rec, err := tlr.Record(ctx, tlr.RecordSpec{Workload: r.op.Prog, Skip: r.op.Skip, Budget: r.op.Budget})
		if err != nil {
			return nil, err
		}
		// The recording starts at the cell's skip, and a trace-backed
		// request's Skip counts records of the recording.
		req := r.op.request(nil)
		req.Workload, req.Trace, req.Skip = "", rec, 0
		res, err := check.Run(ctx, req)
		body, _ := res.MarshalJSON()
		if err != nil || !sameAnswer(body, r.body) {
			r.bad = fmt.Sprintf("op %d: live answer differs from its recorded replay (%v)", r.op.Index, err)
		}
	}
	endToEnd(cfg, out, replies, elapsed, setups, rssMB)
	if !cfg.trace {
		return out, nil
	}

	lay := newLayers()
	lay.fromMetrics(before, after, elapsed, cfg.nproc, 0)
	var recs float64
	for _, r := range replies {
		if r.bad == "" {
			recs += float64(r.op.Budget)
		}
	}
	lay.v["runtime.alloc_bytes_per_record"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / recs
	lay.v["runtime.gc_pause_ms_per_s"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / elapsed.Seconds()
	env := &inproc{batcher: tlr.NewBatcher(tlr.BatchOptions{Workers: 1})}
	defer env.batcher.Close()
	if err := env.replay(cfg, out, lay, pick(replies, cfg.traceOn)); err != nil {
		return nil, err
	}
	lay.publish(out)
	return out, nil
}

// warmLive runs one small simulation of every kind, so program assembly
// and first-use allocations land in set-up, not in the first cells.
// The windows are shorter than any generated cell's, so nothing the
// sweep asks for is cached by it.
func warmLive(ctx context.Context, b *tlr.Batcher) error {
	g := newGenerator(specs["sweep-live"], 0, 0)
	for _, k := range g.spec.Kinds {
		for _, p := range g.progs {
			o := op{Kind: k, Prog: p, Budget: 2_000, Repeat: -1}
			g.configure(&o)
			if _, err := b.Run(ctx, o.request(nil)); err != nil {
				return fmt.Errorf("warm-up %s on %s: %w", k, p, err)
			}
		}
	}
	return nil
}

// scrapeBatcher parses the Batcher's metrics exposition.
func scrapeBatcher(b *tlr.Batcher) []metrics.Sample {
	var buf bytes.Buffer
	if err := b.WriteMetrics(&buf); err != nil {
		return nil
	}
	s, _ := metrics.ParseText(&buf)
	return s
}
