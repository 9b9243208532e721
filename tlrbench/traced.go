package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/tracereuse/tlr"
	"github.com/tracereuse/tlr/internal/analytics"
	"github.com/tracereuse/tlr/internal/core"
	"github.com/tracereuse/tlr/internal/cpu"
	"github.com/tracereuse/tlr/internal/dda"
	"github.com/tracereuse/tlr/internal/metrics"
	"github.com/tracereuse/tlr/internal/pipeline"
	"github.com/tracereuse/tlr/internal/rtm"
	"github.com/tracereuse/tlr/internal/service"
	"github.com/tracereuse/tlr/internal/trace"
	"github.com/tracereuse/tlr/internal/tracefile"
	"github.com/tracereuse/tlr/internal/workload"
)

// The traced run replays a prefix of the window's operations
// in-process, one at a time, in four passes over the same operations:
//
//	A  tlr.Batcher.Run, as a library user calls it;
//	B  the service job body (service.RunStudy, RunRTM, ...) called
//	   directly, untraced — the baseline for the tracing overhead;
//	C  the same work split into calls to each module's public
//	   functions, each call recorded as a span;
//	D  stream open, skip and decode alone, to count decode allocations.
//
// Engines are timed per batch of records, never per record, and record
// streams are wrapped so that an engine's self time excludes decode.
// Pass C's answers must equal pass A's byte for byte, which checks that
// the split replays exactly what the program does.

// layerMetrics lists the per-layer table, with units.
var layerMetrics = []struct{ name, unit string }{
	{"cpu.step_ns_per_record", "ns"},
	{"cpu.skip_share", "ratio"},
	{"core.history_ns_per_record", "ns"},
	{"core.study_ns_per_record", "ns"},
	{"core.vp_ns_per_record", "ns"},
	{"core.study_allocs_per_record", "count"},
	{"dda.ns_per_record", "ns"},
	{"rtm.replay_ns_per_record", "ns"},
	{"rtm.sim_ns_per_record", "ns"},
	{"rtm.allocs_per_record", "count"},
	{"rtm.bytes_per_record", "B"},
	{"analytics.ns_per_record", "ns"},
	{"analytics.allocs_per_record", "count"},
	{"pipeline.ns_per_record", "ns"},
	{"tracefile.decode_ns_per_record", "ns"},
	{"tracefile.seek_us", "us"},
	{"tracefile.stream_ns_per_record", "ns"},
	{"tracefile.skip_ns_per_skipped_record", "ns"},
	{"tracefile.alloc_bytes_per_record", "B"},
	{"service.overhead_ms_mean", "ms"},
	{"service.busy_ratio", "ratio"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.jobs_ran", "count"},
	{"service.job_errors", "count"},
	{"service.jobs_shed", "count"},
	{"service.store_resolve_mem_us", "us"},
	{"service.store_resolve_disk_us", "us"},
	{"service.store_lookups_per_request", "count"},
	{"service.store_upload_ns_per_record", "ns"},
	{"service.store_spills", "count"},
	{"ingest.ns_per_record", "ns"},
	{"ingest.rejected_lines", "count"},
	{"tlr.run_overhead_us", "us"},
	{"tlr.request_decode_us", "us"},
	{"tlr.result_encode_us", "us"},
	{"tlrserve.client_overhead_ms_mean", "ms"},
	{"tlrserve.status_5xx", "count"},
	{"tlrserve.status_429", "count"},
	{"runtime.alloc_bytes_per_record", "B"},
	{"runtime.gc_pause_ms_per_s", "ms/s"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// layers collects per-layer values; a layer a workload does not reach
// stays 0.
type layers struct{ v map[string]float64 }

func newLayers() *layers { return &layers{v: map[string]float64{}} }

func (l *layers) publish(out *outcome) {
	for _, m := range layerMetrics {
		out.set(m.name, m.unit, l.v[m.name])
	}
}

// delta returns a function summing a scraped series' growth over the
// window (all label sets matching pairs).
func delta(before, after []metrics.Sample) func(name string, pairs ...string) float64 {
	return func(name string, pairs ...string) float64 {
		var d float64
		for _, s := range metrics.Find(after, name, pairs...) {
			d += s.Value
		}
		for _, s := range metrics.Find(before, name, pairs...) {
			d -= s.Value
		}
		return d
	}
}

// fromMetrics derives the service layer's counters from the window's
// /metrics growth.  digestReqs is the number of digest-referenced
// requests (0 for in-process sweeps, which have no HTTP route).
func (l *layers) fromMetrics(before, after []metrics.Sample, elapsed time.Duration, workers, digestReqs int) {
	d := delta(before, after)
	jobs := d("tlr_job_duration_seconds_sum")
	l.v["service.busy_ratio"] = jobs / (elapsed.Seconds() * float64(workers))
	l.v["service.cache_hit_ratio"] = ratio(d("tlr_job_cache_hits_total"), d("tlr_jobs_submitted_total"))
	l.v["service.jobs_ran"] = d("tlr_jobs_ran_total")
	l.v["service.job_errors"] = d("tlr_job_errors_total")
	l.v["service.jobs_shed"] = d("tlr_jobs_shed_total")
	l.v["service.store_spills"] = d("tlr_trace_spills_total")
	if digestReqs > 0 {
		l.v["service.store_lookups_per_request"] = (d("tlr_trace_hits_total") + d("tlr_trace_misses_total")) / float64(digestReqs)
		route := d("tlr_http_request_seconds_sum", "route", "POST /v1/run")
		l.v["service.overhead_ms_mean"] = ratio((route-jobs)*1e3, d("tlr_http_request_seconds_count", "route", "POST /v1/run"))
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// pick returns the window's first successful first-time operations,
// in order, until their client latencies add up to budget.
func pick(replies []reply, budget time.Duration) []op {
	var (
		out []op
		sum time.Duration
	)
	for _, r := range replies {
		if sum >= budget {
			break
		}
		if r.bad == "" && r.op.Repeat < 0 {
			out = append(out, r.op)
			sum += r.latency
		}
	}
	return out
}

// inproc is the in-process twin of a workload's program.
type inproc struct {
	batcher *tlr.Batcher     // pass A
	svc     *service.Service // passes B–D over recordings (nil for live sweeps)
	digests []string
	st      *stage
	dirs    []string
	upload  struct{ ns, records float64 }
}

// inproc builds the in-process twin of the stage's server: the same
// store configuration, holding the same base recordings.
func (st *stage) inproc(cfg config) (*inproc, error) {
	env := &inproc{st: st, digests: st.digests}
	var bdir, sdir string
	if st.dir != "" {
		bdir = filepath.Join(cfg.work, fmt.Sprintf("inproc-batcher-%d", os.Getpid()))
		sdir = filepath.Join(cfg.work, fmt.Sprintf("inproc-service-%d", os.Getpid()))
		for _, d := range []string{bdir, sdir} {
			os.RemoveAll(d)
			if err := os.MkdirAll(d, 0o755); err != nil {
				return nil, err
			}
		}
		env.dirs = []string{bdir, sdir}
	}
	store := int64(st.storeMB) << 20
	env.batcher = tlr.NewBatcher(tlr.BatchOptions{Workers: 1, TraceStoreBytes: store, TraceDir: bdir})
	env.svc = service.New(service.Options{Workers: 1, TraceCacheBytes: store, TraceDir: sdir})
	for i, body := range st.baseBytes {
		if _, err := env.batcher.StoreTraceFrom(bytes.NewReader(body)); err != nil {
			env.close()
			return nil, err
		}
		if err := env.addTrace(body, st.bases[i].Digest()); err != nil {
			env.close()
			return nil, err
		}
	}
	return env, nil
}

// addTrace stores one container through Service.AddTraceStream, timed.
func (env *inproc) addTrace(body []byte, digest string) error {
	t := time.Now()
	info, err := env.svc.AddTraceStream(bytes.NewReader(body))
	env.upload.ns += float64(time.Since(t).Nanoseconds())
	if err != nil {
		return err
	}
	if info.Digest != digest {
		return fmt.Errorf("in-process store gave digest %s, want %s", info.Digest, digest)
	}
	env.upload.records += float64(info.Records)
	return nil
}

func (env *inproc) close() {
	env.batcher.Close()
	if env.svc != nil {
		env.svc.Close()
	}
	for _, d := range env.dirs {
		os.RemoveAll(d)
	}
}

// source returns the job-layer source of a read, as tlr builds it.
func (env *inproc) source(o op) (service.Source, error) {
	if o.Prog != "" {
		w, _ := workload.ByName(o.Prog)
		prog, err := w.Program()
		return service.ProgSource("", prog), err
	}
	h, ok := env.svc.ResolveTrace(env.digests[o.Base])
	if !ok {
		return service.Source{}, fmt.Errorf("trace %s not in the in-process store", env.digests[o.Base])
	}
	return service.StreamSource("", 0, h.Open), nil
}

// jobBody runs a read through the service job body directly.
func (env *inproc) jobBody(ctx context.Context, o op) error {
	src, err := env.source(o)
	if err != nil {
		return err
	}
	switch o.Kind {
	case tlr.KindStudy:
		s := o.Study
		_, err = service.RunStudy(ctx, src, service.StudyParams{Budget: o.Budget, Skip: o.Skip,
			Window: s.Window, Strict: s.Strict, MaxRunLen: s.MaxRunLen, ILPWindows: s.ILPWindows})
	case tlr.KindRTM:
		_, err = service.RunRTM(ctx, src, service.RTMParams{Config: *o.RTM, Skip: o.Skip, Budget: o.Budget})
	case tlr.KindVP:
		_, err = service.RunVP(ctx, src, service.VPParams{Window: o.VP.Window, PredLat: o.VP.PredLat, Skip: o.Skip, Budget: o.Budget})
	case tlr.KindAnalyze:
		_, err = service.RunAnalyze(ctx, src, service.AnalyzeParams{Skip: o.Skip, Budget: o.Budget})
	case tlr.KindPipeline:
		_, err = service.RunPipeline(ctx, src, service.PipelineParams{Config: o.Pipe.Normalized(), Skip: o.Skip, Budget: o.Budget})
	}
	return err
}

// replay runs passes A–D over ops and fills the per-layer table.
func (env *inproc) replay(cfg config, out *outcome, lay *layers, ops []op) error {
	ctx := context.Background()
	var reads, writes []op
	for _, o := range ops {
		if o.Class == classRead {
			reads = append(reads, o)
		} else {
			writes = append(writes, o)
		}
	}
	if len(reads) == 0 {
		return fmt.Errorf("traced run: no completed reads to replay")
	}

	// The passes take turns per operation, in rotating order, so drift
	// in machine speed over the replay falls on all three alike.
	var timeA, timeB time.Duration
	tr := &tracer{t0: time.Now(), c: map[string]float64{}}
	var ms0, ms1 runtime.MemStats
	for i, o := range reads {
		var answer, split []byte
		for k := 0; k < 3; k++ {
			var err error
			t := time.Now()
			switch (i + k) % 3 {
			case 0:
				var res tlr.Result
				res, err = env.batcher.Run(ctx, o.request(env.digests))
				timeA += time.Since(t)
				answer, _ = res.MarshalJSON()
			case 1:
				err = env.jobBody(ctx, o)
				timeB += time.Since(t)
			case 2:
				runtime.ReadMemStats(&ms0)
				split, err = tr.run(ctx, env, o)
				runtime.ReadMemStats(&ms1)
				tr.c["mallocs."+string(o.Kind)] += float64(ms1.Mallocs - ms0.Mallocs)
				tr.c["bytes."+string(o.Kind)] += float64(ms1.TotalAlloc - ms0.TotalAlloc)
			}
			if err != nil {
				return fmt.Errorf("traced replay of op %d: %w", o.Index, err)
			}
		}
		if !sameAnswer(split, answer) {
			out.fail("traced op %d: split replay differs from Batcher.Run", o.Index)
		}
	}
	for _, o := range writes {
		tr.write(env, o)
	}
	if env.svc != nil {
		decodeAllocs(ctx, env, reads, lay)
	}

	// The per-layer table.
	self := selfTimes(tr.spans)
	ns := map[string]float64{}
	var rootTotal, rootSelf float64
	for i, s := range tr.spans {
		ns[s.Name] += float64(self[i])
		if s.Parent == 0 {
			rootTotal += float64(s.dur())
			rootSelf += float64(self[i])
		}
	}
	c := tr.c
	v := lay.v
	v["cpu.step_ns_per_record"] = ratio(ns["cpu.step"], c["records.cpu.step"])
	v["cpu.skip_share"] = ratio(ns["cpu.skip"], c["time.live"])
	v["core.history_ns_per_record"] = ratio(ns["core.history"], c["records.study"])
	v["core.study_ns_per_record"] = ratio(ns["core.study"], c["records.study"])
	v["core.vp_ns_per_record"] = ratio(ns["core.vp"], c["records.vp"])
	v["core.study_allocs_per_record"] = ratio(c["mallocs.study"], c["records.study"])
	v["dda.ns_per_record"] = ratio(ns["dda"], c["records.dda"])
	v["rtm.replay_ns_per_record"] = ratio(ns["rtm.replay"], c["records.rtm.replay"])
	v["rtm.sim_ns_per_record"] = ratio(ns["rtm.sim"], c["records.rtm.sim"])
	rtmRecords := c["records.rtm.replay"] + c["records.rtm.sim"]
	v["rtm.allocs_per_record"] = ratio(c["mallocs.rtm"], rtmRecords)
	v["rtm.bytes_per_record"] = ratio(c["bytes.rtm"], rtmRecords)
	v["analytics.ns_per_record"] = ratio(ns["analytics"], c["records.analyze"])
	v["analytics.allocs_per_record"] = ratio(c["mallocs.analyze"], c["records.analyze"])
	v["pipeline.ns_per_record"] = ratio(ns["pipeline"], c["records.pipeline"])
	v["tracefile.decode_ns_per_record"] = ratio(ns["tracefile.decode"], c["records.tracefile.decode"])
	v["tracefile.seek_us"] = ratio(ns["tracefile.seek"]/1e3, c["calls.tracefile.seek"])
	v["tracefile.stream_ns_per_record"] = ratio(ns["tracefile.stream"], c["records.tracefile.stream"])
	v["tracefile.skip_ns_per_skipped_record"] = ratio(ns["tracefile.skip"], c["skipped.tracefile.skip"])
	v["service.store_resolve_mem_us"] = ratio(c["resolve.mem.ns"]/1e3, c["resolve.mem.calls"])
	v["service.store_resolve_disk_us"] = ratio(c["resolve.disk.ns"]/1e3, c["resolve.disk.calls"])
	v["service.store_upload_ns_per_record"] = ratio(env.upload.ns, env.upload.records)
	v["ingest.ns_per_record"] = ratio(ns["ingest"], c["records.ingest"])
	v["ingest.rejected_lines"] = c["rejected.ingest"]
	n := float64(len(reads))
	v["tlr.run_overhead_us"] = float64((timeA - timeB).Nanoseconds()) / 1e3 / n
	v["tlr.request_decode_us"] = ns["tlr.request_decode"] / 1e3 / n
	v["tlr.result_encode_us"] = ns["tlr.result_encode"] / 1e3 / n
	v["trace.coverage"] = ratio(rootTotal-rootSelf, rootTotal)
	v["trace.overhead_ratio"] = ratio(c["time.reads"], float64(timeB.Nanoseconds()))
	out.note("trace.requests", "count", n)
	out.note("trace.writes", "count", float64(len(writes)))

	path := filepath.Join(cfg.work, fmt.Sprintf("spans-%s-%d.jsonl", cfg.spec.Name, cfg.seed))
	if err := writeSpans(path, tr.spans); err != nil {
		return err
	}
	out.note("trace.spans", "count", float64(len(tr.spans)))
	printTable(tr.spans, self, rootTotal, path)
	return nil
}

// printTable prints total self time per span name, largest first.
func printTable(spans []span, self []time.Duration, total float64, path string) {
	type row struct {
		name  string
		calls int
		ns    float64
	}
	rows := map[string]*row{}
	for i, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &row{name: s.Name}
			rows[s.Name] = r
		}
		r.calls++
		r.ns += float64(self[i])
	}
	var list []*row
	for _, r := range rows {
		list = append(list, r)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].ns > list[j].ns })
	fmt.Printf("# span self time (%s)\n# %-34s %8s %12s %7s\n", path, "span", "calls", "self_ms", "share")
	for _, r := range list {
		fmt.Printf("# %-34s %8d %12.3f %6.1f%%\n", r.name, r.calls, r.ns/1e6, 100*ratio(r.ns, total))
	}
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// decodeAllocs opens, skips and drains each read's window with no
// engine attached and reports the bytes allocated per decoded record.
func decodeAllocs(ctx context.Context, env *inproc, reads []op, lay *layers) {
	var ms0, ms1 runtime.MemStats
	var records uint64
	runtime.ReadMemStats(&ms0)
	for _, o := range reads {
		h, ok := env.svc.ResolveTrace(env.digests[o.Base])
		if !ok {
			return
		}
		st, err := h.Open()
		if err != nil {
			return
		}
		if _, err := st.Skip(o.Skip); err == nil {
			n, _ := trace.RunStream(ctx, st, o.Budget, nil)
			records += n
		}
		st.Close()
	}
	runtime.ReadMemStats(&ms1)
	lay.v["tracefile.alloc_bytes_per_record"] = ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), float64(records))
}

// tracer records spans and counters for pass C.  It is used from one
// goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	c     map[string]float64
}

func (t *tracer) begin(req, parent int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	return s.dur()
}

// timedStream records each NextBatch as a span under parent.
type timedStream struct {
	trace.Stream
	t           *tracer
	req, parent int
	name        string
}

func (s *timedStream) NextBatch() ([]trace.Exec, error) {
	id := s.t.begin(s.req, s.parent, s.name)
	b, err := s.Stream.NextBatch()
	s.t.end(id)
	s.t.c["records."+s.name] += float64(len(b))
	return b, err
}

// run executes one read split into module calls and returns its wire
// answer.
func (t *tracer) run(ctx context.Context, env *inproc, o op) ([]byte, error) {
	req := o.request(env.digests)
	wire, err := req.MarshalJSON()
	if err != nil {
		return nil, err
	}
	root := t.begin(o.Index, 0, "request")
	sp := t.begin(o.Index, root, "tlr.request_decode")
	var dec tlr.Request
	err = dec.UnmarshalJSON(wire)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	res := tlr.Result{ID: req.ID, Kind: o.Kind}
	if o.Prog != "" {
		err = t.live(ctx, o, root, &res)
	} else {
		err = t.replayed(ctx, env, o, root, &res)
	}
	if err != nil {
		return nil, err
	}
	sp = t.begin(o.Index, root, "tlr.result_encode")
	body, err := res.MarshalJSON()
	t.end(sp)
	d := float64(t.end(root))
	t.c["time.reads"] += d
	if o.Prog != "" {
		t.c["time.live"] += d
	}
	return body, err
}

// batchLen is how many records the live producer hands the engines at
// a time, matching the decoders' batch size.
const batchLen = 4096

func (t *tracer) live(ctx context.Context, o op, root int, res *tlr.Result) error {
	w, _ := workload.ByName(o.Prog)
	prog, err := w.Program()
	if err != nil {
		return err
	}
	c := cpu.New(prog)
	if o.Skip > 0 {
		sp := t.begin(o.Index, root, "cpu.skip")
		_, err := c.RunContext(ctx, o.Skip, nil)
		t.end(sp)
		if err != nil {
			return err
		}
	}
	switch o.Kind {
	case tlr.KindRTM:
		sp := t.begin(o.Index, root, "rtm.sim")
		r, err := rtm.NewSim(*o.RTM, c).RunContext(ctx, o.Budget)
		t.end(sp)
		t.c["records.rtm.sim"] += float64(r.Total())
		res.RTM = &r
		return err
	case tlr.KindPipeline:
		sp := t.begin(o.Index, root, "pipeline")
		r, err := pipeline.New(o.Pipe.Normalized(), c).RunContext(ctx, o.Budget)
		t.end(sp)
		t.c["records.pipeline"] += float64(o.Budget)
		res.Pipeline = &r
		return err
	}
	en := newEngines(o)
	buf := make([]trace.Exec, 0, batchLen)
	for n := uint64(0); n < o.Budget; {
		buf = buf[:0]
		sp := t.begin(o.Index, root, "cpu.step")
		k, err := c.RunContext(ctx, min(batchLen, o.Budget-n), func(e *trace.Exec) { buf = append(buf, *e) })
		t.end(sp)
		if err != nil {
			return err
		}
		t.c["records.cpu.step"] += float64(k)
		en.consume(t, o.Index, root, buf)
		if n += k; k == 0 {
			break
		}
	}
	en.finish(t, o.Index, root, res)
	return nil
}

func (t *tracer) replayed(ctx context.Context, env *inproc, o op, root int, res *tlr.Result) error {
	sp := t.begin(o.Index, root, "service.resolve")
	h, ok := env.svc.ResolveTrace(env.digests[o.Base])
	var (
		st  trace.Stream
		err error
	)
	if ok {
		st, err = h.Open()
	}
	d := float64(t.end(sp))
	if !ok || err != nil {
		return fmt.Errorf("resolve %s: found=%v: %v", env.digests[o.Base], ok, err)
	}
	defer st.Close()
	tier, skipName, decodeName := "mem", "tracefile.seek", "tracefile.decode"
	if _, disk := st.(*tracefile.FileStream); disk {
		tier, skipName, decodeName = "disk", "tracefile.skip", "tracefile.stream"
	}
	t.c["resolve."+tier+".ns"] += d
	t.c["resolve."+tier+".calls"]++
	if o.Skip > 0 {
		sp := t.begin(o.Index, root, skipName)
		_, err := st.Skip(o.Skip)
		t.end(sp)
		if err != nil {
			return err
		}
		t.c["calls."+skipName]++
		t.c["skipped."+skipName] += float64(o.Skip)
	}
	ts := &timedStream{Stream: st, t: t, req: o.Index, parent: root, name: decodeName}
	if o.Kind == tlr.KindRTM {
		sp := t.begin(o.Index, root, "rtm.replay")
		ts.parent = sp
		r, err := rtm.NewReplay(*o.RTM, ts).RunContext(ctx, o.Budget)
		t.end(sp)
		t.c["records.rtm.replay"] += float64(r.Total())
		res.RTM = &r
		return err
	}
	en := newEngines(o)
	for n := uint64(0); n < o.Budget; {
		b, err := ts.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if rest := o.Budget - n; uint64(len(b)) > rest {
			b = b[:rest]
		}
		en.consume(t, o.Index, root, b)
		n += uint64(len(b))
	}
	en.finish(t, o.Index, root, res)
	return nil
}

// write replays one upload or ingest in-process, timed.
func (t *tracer) write(env *inproc, o op) {
	root := t.begin(o.Index, 0, "request")
	if o.Class == classUpload {
		p := env.st.uploads[o.Write]
		sp := t.begin(o.Index, root, "service.store_upload")
		_ = env.addTrace(p.body, p.digest)
		t.end(sp)
	} else {
		sp := t.begin(o.Index, root, "ingest")
		_, st, err := tlr.Ingest(bytes.NewReader(env.st.csvs[o.Write].body), csvFormat, tlr.IngestOptions{Lenient: true})
		t.end(sp)
		if err == nil {
			t.c["records.ingest"] += float64(st.Records)
			t.c["rejected.ingest"] += float64(st.Rejected)
		}
	}
	t.end(root)
}

// engines are the trace-driven consumers of one read, fed a batch at a
// time in the order the service job body feeds them a record at a time.
type engines struct {
	kind     tlr.Kind
	hist     *core.History
	ilr      *core.ILRStudy
	tlrS     *core.TLRStudy
	ilp      *dda.Study
	vp       *core.VPStudy
	an       *analytics.Analyzer
	reusable []bool
}

func newEngines(o op) *engines {
	en := &engines{kind: o.Kind}
	switch o.Kind {
	case tlr.KindStudy:
		s := o.Study
		en.hist = core.NewHistory()
		en.ilr = core.NewILRStudy(core.ILRConfig{Window: s.Window, Latencies: []float64{1}})
		en.tlrS = core.NewTLRStudy(core.TLRConfig{Window: s.Window, Variants: []core.Latency{core.ConstLatency(1)},
			Strict: s.Strict, MaxRunLen: s.MaxRunLen})
		if len(s.ILPWindows) > 0 {
			en.ilp = dda.NewStudy(s.ILPWindows)
		}
		en.reusable = make([]bool, batchLen)
	case tlr.KindVP:
		en.vp = core.NewVPStudy(core.VPConfig{Window: o.VP.Window, PredLat: o.VP.PredLat})
	case tlr.KindAnalyze:
		en.an = analytics.New()
	}
	return en
}

func (en *engines) consume(t *tracer, req, parent int, b []trace.Exec) {
	n := float64(len(b))
	switch en.kind {
	case tlr.KindStudy:
		if len(en.reusable) < len(b) {
			en.reusable = make([]bool, len(b))
		}
		sp := t.begin(req, parent, "core.history")
		for i := range b {
			en.reusable[i] = en.hist.Observe(&b[i])
		}
		t.end(sp)
		sp = t.begin(req, parent, "core.study")
		for i := range b {
			en.ilr.ConsumeClassified(&b[i], en.reusable[i])
			en.tlrS.ConsumeClassified(&b[i], en.reusable[i])
		}
		t.end(sp)
		if en.ilp != nil {
			sp = t.begin(req, parent, "dda")
			for i := range b {
				en.ilp.Consume(&b[i])
			}
			t.end(sp)
			t.c["records.dda"] += n
		}
		t.c["records.study"] += n
	case tlr.KindVP:
		sp := t.begin(req, parent, "core.vp")
		for i := range b {
			en.vp.Consume(&b[i])
		}
		t.end(sp)
		t.c["records.vp"] += n
	case tlr.KindAnalyze:
		sp := t.begin(req, parent, "analytics")
		for i := range b {
			en.an.Consume(&b[i])
		}
		t.end(sp)
		t.c["records.analyze"] += n
	}
}

func (en *engines) finish(t *tracer, req, parent int, res *tlr.Result) {
	switch en.kind {
	case tlr.KindStudy:
		sp := t.begin(req, parent, "core.study")
		en.ilr.Finish()
		en.tlrS.Finish()
		t.end(sp)
		res.Study = &tlr.StudyResult{ILR: en.ilr.Result(), TLR: en.tlrS.Result()}
		if en.ilp != nil {
			sp = t.begin(req, parent, "dda")
			res.Study.DDA = en.ilp.Result()
			t.end(sp)
		}
	case tlr.KindVP:
		sp := t.begin(req, parent, "core.vp")
		en.vp.Finish()
		r := en.vp.Result()
		t.end(sp)
		res.VP = &r
	case tlr.KindAnalyze:
		sp := t.begin(req, parent, "analytics")
		r := en.an.Result()
		t.end(sp)
		res.Analyze = &r
	}
}
