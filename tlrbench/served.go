package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"github.com/tracereuse/tlr"
	"github.com/tracereuse/tlr/internal/metrics"
)

// replay-mem and disk-churn: digest-referenced traffic to a tlrserve
// child process built from this checkout.

const (
	// uploadRecords and csvLines size one write of disk-churn.
	uploadRecords = 20_000
	csvLines      = 10_000
	// writesPerSecond bounds the writes per class one run can issue per
	// second of window; the payloads are generated before the window.
	writesPerSecond = 6
	// csvQuery maps the generated CSV columns (address, r/w, PC).
	csvQuery = "/v1/ingest?format=csv&addr-col=0&op-col=1&pc-col=2"
)

// servedSetups is how many times a run sets up; setup_s is the median.
const servedSetups = 3

// crossSamples is how many served reads the cross-source check re-runs
// in-process per workload.
var crossSamples = map[string]int{"replay-mem": 30, "disk-churn": 10}

// server is a tlrserve child process.
type server struct {
	cmd    *exec.Cmd
	url    string
	client *http.Client
	done   chan error
}

func startServer(cfg config, args ...string) (*server, error) {
	if cfg.server == "" {
		return nil, fmt.Errorf("no tlrserve binary given (-tlrserve)")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.OpenFile(filepath.Join(cfg.work, "tlrserve.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(cfg.server, append([]string{
		"-addr", addr, "-drain-timeout", "2s", "-peer-probe", "0", "-repair-interval", "0",
	}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, even one killed by a
	// timeout.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{
		cmd: cmd,
		url: "http://" + addr,
		client: &http.Client{
			Timeout: time.Minute,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: cfg.nproc,
				MaxConnsPerHost:     cfg.nproc,
			},
		},
		done: make(chan error, 1),
	}
	go func() { s.done <- cmd.Wait() }()
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		select {
		case err := <-s.done:
			return nil, fmt.Errorf("tlrserve exited during start-up: %v (see %s)", err, logf.Name())
		default:
		}
		if resp, err := s.client.Get(s.url + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
	}
	s.stop()
	return nil, fmt.Errorf("tlrserve did not become healthy")
}

// stop shuts the server down and waits for it to exit.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

func (s *server) post(path, ctype string, body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.url+path, ctype, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// runtime reads the runtime section of /v1/stats, which carries the
// GC pause total at full precision.
func (s *server) runtime() metrics.RuntimeStats {
	var stats struct {
		Runtime metrics.RuntimeStats `json:"runtime"`
	}
	resp, err := s.client.Get(s.url + "/v1/stats")
	if err != nil {
		return stats.Runtime
	}
	defer resp.Body.Close()
	_ = json.NewDecoder(resp.Body).Decode(&stats)
	return stats.Runtime
}

func (s *server) scrape() []metrics.Sample {
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	samples, _ := metrics.ParseText(resp.Body)
	return samples
}

// payload is one pre-generated write and what the generator computed
// it must store.
type payload struct {
	body    []byte
	records uint64
	digest  string // empty for CSVs until checked
}

// stage is one set-up of a served workload.
type stage struct {
	srv       *server
	dir       string // the server's trace directory ("" = memory tier only)
	storeMB   int
	bases     []*tlr.Trace
	baseBytes [][]byte
	digests   []string
	gen       *generator
	uploads   []payload
	csvs      []payload
	phases    map[string]float64 // set-up seconds per phase
}

func (st *stage) close() {
	if st.srv != nil {
		st.srv.stop()
	}
	if st.dir != "" {
		os.RemoveAll(st.dir)
	}
}

func runServed(cfg config) (*outcome, error) {
	ctx := context.Background()
	out := newOutcome()
	reps := servedSetups
	if cfg.trace {
		reps = 1
	}
	var (
		st     *stage
		setups []float64
	)
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	for i := 0; i < reps; i++ {
		if st != nil {
			st.close()
		}
		t := time.Now()
		var err error
		if st, err = setUp(ctx, cfg, i); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}

	for name, v := range st.phases {
		out.note(name, "s", v)
	}
	before, rt0 := st.srv.scrape(), st.srv.runtime()
	pid := st.srv.cmd.Process.Pid
	rss := sampleRSS(pid)
	// A repeat waits until its original is answered, so it can only
	// ever meet a cached result.
	done := newDoneSet()
	replies, elapsed := closedLoop(cfg.nproc, cfg.window, func(i int) reply {
		o := st.gen.op(i)
		if o.Repeat >= 0 {
			done.wait(o.Repeat)
		}
		r := st.issue(o)
		done.mark(i)
		return r
	})
	after, rt1 := st.srv.scrape(), st.srv.runtime()
	rssMB, rssP90 := rss.finish()
	out.note("rss_p90_mb", "MB", rssP90)
	out.note("peak_rss_mb", "MB", statusMB(pid, "VmHWM"))

	checkRepeats(replies)
	if err := st.checkIngests(replies); err != nil {
		return nil, err
	}
	check := tlr.NewBatcher(tlr.BatchOptions{Workers: cfg.nproc})
	defer check.Close()
	for _, r := range sample(replies, crossSamples[cfg.spec.Name], cfg.seed, func(op) bool { return true }) {
		req := r.op.request(nil)
		req.Trace = st.bases[r.op.Base]
		res, err := check.Run(ctx, req)
		body, _ := res.MarshalJSON()
		if err != nil || !sameAnswer(body, r.body) {
			r.bad = fmt.Sprintf("op %d: served answer differs from the in-memory recording's (%v)", r.op.Index, err)
		}
	}
	endToEnd(cfg, out, replies, elapsed, setups, rssMB)
	if !cfg.trace {
		return out, nil
	}

	lay := newLayers()
	var (
		reads                int
		clientRun, delivered float64
	)
	for _, r := range replies {
		switch {
		case r.status >= 500:
			lay.v["tlrserve.status_5xx"]++
		case r.status == http.StatusTooManyRequests:
			lay.v["tlrserve.status_429"]++
		}
		if r.op.Class == classRead {
			reads++
			clientRun += r.latency.Seconds()
			if r.bad == "" && !r.cached {
				delivered += float64(r.op.Budget)
			}
		}
	}
	lay.fromMetrics(before, after, elapsed, cfg.nproc, reads)
	d := delta(before, after)
	routeSum := d("tlr_http_request_seconds_sum", "route", "POST /v1/run")
	lay.v["tlrserve.client_overhead_ms_mean"] = (clientRun - routeSum) * 1e3 / float64(max(reads, 1))
	lay.v["runtime.alloc_bytes_per_record"] = d("go_memstats_alloc_bytes_total") / delivered
	lay.v["runtime.gc_pause_ms_per_s"] = (rt1.GCPauseTotalSeconds - rt0.GCPauseTotalSeconds) * 1e3 / elapsed.Seconds()

	env, err := st.inproc(cfg)
	if err != nil {
		return nil, err
	}
	defer env.close()
	if err := env.replay(cfg, out, lay, pick(replies, cfg.traceOn)); err != nil {
		return nil, err
	}
	lay.publish(out)
	return out, nil
}

// setUp starts a server, records and uploads the base recordings,
// generates the inputs and warms the server up.
func setUp(ctx context.Context, cfg config, rep int) (*stage, error) {
	spec := cfg.spec
	disk := spec.WriteShare > 0
	st := &stage{storeMB: 512, phases: map[string]float64{}}
	last := time.Now()
	lap := func(phase string) {
		st.phases["setup."+phase+"_s"] = time.Since(last).Seconds()
		last = time.Now()
	}
	args := []string{"-trace-store-mb", "512"}
	if disk {
		// A memory tier far smaller than the base recordings, so they
		// live on disk and every read streams them from there.
		st.storeMB = 1
		st.dir = filepath.Join(cfg.work, fmt.Sprintf("store-%d-%d", os.Getpid(), rep))
		os.RemoveAll(st.dir)
		args = []string{"-trace-store-mb", "1", "-trace-dir", st.dir}
	}
	var err error
	if st.srv, err = startServer(cfg, args...); err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			st.close()
		}
	}()

	lap("server")
	st.bases = make([]*tlr.Trace, len(spec.Bases))
	st.baseBytes = make([][]byte, len(spec.Bases))
	if err := parallel(cfg.nproc, len(spec.Bases), func(i int) error {
		b := spec.Bases[i]
		t, body, err := record(ctx, b.Prog, 0, b.Records)
		st.bases[i], st.baseBytes[i] = t, body
		return err
	}); err != nil {
		return nil, err
	}
	lap("record")
	for i, t := range st.bases {
		p := payload{body: st.baseBytes[i], records: t.Records(), digest: t.Digest()}
		r := st.write(op{Class: classUpload, Index: -1 - i}, "/v1/traces", "application/octet-stream", p)
		if r.bad != "" {
			return nil, fmt.Errorf("uploading base recording %s: %s", spec.Bases[i].Prog, r.bad)
		}
		st.digests = append(st.digests, t.Digest())
	}

	lap("upload")
	writes := 0
	if disk {
		writes = int(cfg.window.Seconds()*writesPerSecond) + 8
		if st.uploads, err = makeUploads(ctx, cfg, writes); err != nil {
			return nil, err
		}
		st.csvs = makeCSVs(cfg.seed, writes)
	}
	st.gen = newGenerator(spec, cfg.seed, writes)
	st.gen.op(1023)

	// Warm-up: one short read of every kind on every base.  Windows
	// below the generator's minimum keep these out of the timed reads'
	// cache entries.
	lap("inputs")
	warm := newGenerator(spec, 0, 0)
	for b := range spec.Bases {
		for _, k := range spec.Kinds {
			o := op{Class: classRead, Kind: k, Base: b, Budget: spec.MinWindow / 2, Repeat: -1, Index: -1}
			warm.configure(&o)
			if r := st.issue(o); r.bad != "" {
				return nil, fmt.Errorf("warm-up: %s", r.bad)
			}
		}
	}
	lap("warm")
	ok = true
	return st, nil
}

// record records a program window and encodes it as a v4 container.
func record(ctx context.Context, prog string, skip, n uint64) (*tlr.Trace, []byte, error) {
	t, err := tlr.Record(ctx, tlr.RecordSpec{Workload: prog, Skip: skip, Budget: n})
	if err != nil {
		return nil, nil, err
	}
	if t.Records() != n {
		return nil, nil, fmt.Errorf("%s halted after %d of %d records", prog, t.Records(), n)
	}
	var buf bytes.Buffer
	if _, err := t.WriteTo(&buf); err != nil {
		return nil, nil, err
	}
	return t, buf.Bytes(), nil
}

// makeUploads records n fresh windows, cycling through the programs and
// taking consecutive windows of each, so no upload deduplicates against
// another.  The seed only shifts the windows a little: recording
// executes the skip, so a seed-sized skip would make set-up time depend
// on the seed.
func makeUploads(ctx context.Context, cfg config, n int) ([]payload, error) {
	progs := programs()
	out := make([]payload, n)
	err := parallel(cfg.nproc, n, func(i int) error {
		skip := uint64(cfg.seed%64)*101 + uint64(i/len(progs))*uploadRecords
		t, body, err := record(ctx, progs[i%len(progs)], skip, uploadRecords)
		if err != nil {
			return err
		}
		out[i] = payload{body: body, records: t.Records(), digest: t.Digest()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for _, p := range out {
		if seen[p.digest] {
			return nil, fmt.Errorf("two generated uploads share digest %s", p.digest)
		}
		seen[p.digest] = true
	}
	return out, nil
}

// makeCSVs generates n CSV address traces (address, r/w, PC).  Each
// starts with a line unique to its seed and index, so no two share
// content; the rest reuse a small working set, as real traces do.
func makeCSVs(seed int64, n int) []payload {
	out := make([]payload, n)
	for i := range out {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
		b := make([]byte, 0, csvLines*16)
		b = fmt.Appendf(b, "0x%x,r,1\n", uint64(seed)<<24|uint64(i)<<3|1<<40)
		for l := 1; l < csvLines; l++ {
			b = append(b, "0x"...)
			b = strconv.AppendUint(b, uint64(0x10000+8*rng.Intn(4096)), 16)
			if rng.Intn(4) == 0 {
				b = append(b, ",w,"...)
			} else {
				b = append(b, ",r,"...)
			}
			b = strconv.AppendUint(b, uint64(4*rng.Intn(64)), 10)
			b = append(b, '\n')
		}
		out[i] = payload{body: b, records: csvLines}
	}
	return out
}

// issue sends one operation and checks its answer.
func (st *stage) issue(o op) reply {
	switch o.Class {
	case classUpload:
		return st.write(o, "/v1/traces", "application/octet-stream", st.uploads[o.Write])
	case classIngest:
		return st.write(o, csvQuery, "text/csv", st.csvs[o.Write])
	}
	body, err := o.request(st.digests).MarshalJSON()
	if err != nil {
		return reply{op: o, bad: fmt.Sprintf("op %d: encode request: %v", o.Index, err)}
	}
	t := time.Now()
	status, resp, err := st.srv.post("/v1/run", "application/json", body)
	r := reply{op: o, latency: time.Since(t), status: status, body: resp}
	if err != nil {
		r.bad = fmt.Sprintf("op %d: %v", o.Index, err)
		return r
	}
	checkRead(&r)
	return r
}

// write sends one upload or ingest and checks the stored digest and
// record count (a CSV's digest is checked after the window).
func (st *stage) write(o op, path, ctype string, p payload) reply {
	t := time.Now()
	status, resp, err := st.srv.post(path, ctype, p.body)
	r := reply{op: o, latency: time.Since(t), status: status}
	var ans struct {
		Digest   string `json:"digest"`
		Records  uint64 `json:"records"`
		Rejected uint64 `json:"rejected"`
	}
	switch {
	case err != nil:
		r.bad = fmt.Sprintf("%s %d: %v", o.Class, o.Index, err)
	case status != http.StatusOK:
		r.bad = fmt.Sprintf("%s %d: HTTP status %d: %s", o.Class, o.Index, status, bytes.TrimSpace(resp))
	case json.Unmarshal(resp, &ans) != nil:
		r.bad = fmt.Sprintf("%s %d: undecodable answer %q", o.Class, o.Index, resp)
	case ans.Records != p.records || ans.Rejected != 0 || (p.digest != "" && ans.Digest != p.digest):
		r.bad = fmt.Sprintf("%s %d: stored %s (%d records, %d rejected), want %s (%d records)",
			o.Class, o.Index, ans.Digest, ans.Records, ans.Rejected, p.digest, p.records)
	}
	r.records, r.digest = ans.Records, ans.Digest
	return r
}

// checkIngests ingests every CSV the window sent locally and compares
// digests with what the server stored.
func (st *stage) checkIngests(replies []reply) error {
	for i := range replies {
		r := &replies[i]
		if r.op.Class != classIngest || r.bad != "" {
			continue
		}
		t, stats, err := tlr.Ingest(bytes.NewReader(st.csvs[r.op.Write].body), csvFormat, tlr.IngestOptions{})
		if err != nil {
			return fmt.Errorf("local ingest of CSV %d: %w", r.op.Write, err)
		}
		if t.Digest() != r.digest || stats.Records != r.records {
			r.bad = fmt.Sprintf("ingest %d: server stored %s (%d records), local ingest gives %s (%d)",
				r.op.Index, r.digest, r.records, t.Digest(), stats.Records)
		}
	}
	return nil
}

var csvFormat = tlr.IngestFormat{CSV: &tlr.CSVFormat{AddrCol: 0, OpCol: 1, PCCol: 2}}

// parallel runs fn(0..n-1) on at most workers goroutines and returns
// the first error.
func parallel(workers, n int, fn func(i int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		next  int
		first error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}
