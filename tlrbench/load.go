package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tracereuse/tlr"
)

// reply is the client's record of one completed operation.
type reply struct {
	op      op
	latency time.Duration
	status  int    // HTTP status (200 in-process)
	cached  bool   // result came from the result cache
	body    []byte // wire JSON of the answer
	records uint64 // records the write stored, as the server reported
	digest  string // digest the write stored, as the server reported
	bad     string // why the reply failed a check ("" if it passed)

	began, ended time.Duration // since the window opened
}

// closedLoop runs callers goroutines that each take the next operation
// index and call do, until d has passed.  Every caller finishes the
// operation it holds at the deadline, and the window runs to the last
// completion, so no work is cut off or left uncounted.
func closedLoop(callers int, d time.Duration, do func(i int) reply) ([]reply, time.Duration) {
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var (
		mu  sync.Mutex
		all []reply
		wg  sync.WaitGroup
	)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []reply
			for time.Now().Before(deadline) {
				began := time.Since(start)
				r := do(int(next.Add(1) - 1))
				r.began, r.ended = began, time.Since(start)
				mine = append(mine, r)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	sort.Slice(all, func(i, j int) bool { return all[i].op.Index < all[j].op.Index })
	return all, elapsed
}

// doneSet records which operations have been answered.
type doneSet struct {
	mu   sync.Mutex
	cond *sync.Cond
	done map[int]bool
}

func newDoneSet() *doneSet {
	d := &doneSet{done: map[int]bool{}}
	d.cond = sync.NewCond(&d.mu)
	return d
}

func (d *doneSet) mark(i int) {
	d.mu.Lock()
	d.done[i] = true
	d.mu.Unlock()
	d.cond.Broadcast()
}

// wait blocks until operation i has been answered.  Operations are
// taken in index order, so an earlier one is always in some caller's
// hands.
func (d *doneSet) wait(i int) {
	d.mu.Lock()
	for !d.done[i] {
		d.cond.Wait()
	}
	d.mu.Unlock()
}

// checkRead checks one read answer: it decodes through
// Result.UnmarshalJSON without error, carries the right kind, and is
// cached exactly when the plan says it repeats an earlier read.
func checkRead(r *reply) {
	if r.status != 200 {
		r.bad = fmt.Sprintf("op %d: HTTP status %d", r.op.Index, r.status)
		return
	}
	var res tlr.Result
	if err := res.UnmarshalJSON(r.body); err != nil {
		r.bad = fmt.Sprintf("op %d: undecodable result: %v", r.op.Index, err)
		return
	}
	r.cached = res.Cached
	switch {
	case res.Err != nil:
		r.bad = fmt.Sprintf("op %d: result error: %v", r.op.Index, res.Err)
	case res.Kind != r.op.Kind:
		r.bad = fmt.Sprintf("op %d: kind %q, want %q", r.op.Index, res.Kind, r.op.Kind)
	case r.op.Repeat < 0 && res.Cached:
		r.bad = fmt.Sprintf("op %d: first-time read answered from cache", r.op.Index)
	case r.op.Repeat >= 0 && !res.Cached:
		r.bad = fmt.Sprintf("op %d: planned repeat of op %d was simulated again", r.op.Index, r.op.Repeat)
	}
}

// canonical re-encodes a wire result with the fields that legitimately
// differ between two answers to one request cleared: where it came
// from, not what it says.
func canonical(body []byte) ([]byte, error) {
	var res tlr.Result
	if err := res.UnmarshalJSON(body); err != nil {
		return nil, err
	}
	res.Cached, res.Node, res.Forwarded, res.Index = false, "", false, 0
	return res.MarshalJSON()
}

// sameAnswer reports whether two wire results agree byte for byte once
// canonicalized.
func sameAnswer(a, b []byte) bool {
	ca, err1 := canonical(a)
	cb, err2 := canonical(b)
	return err1 == nil && err2 == nil && bytes.Equal(ca, cb)
}

// checkRepeats compares every repeat with its original's answer.
func checkRepeats(replies []reply) {
	byIndex := make(map[int]*reply, len(replies))
	for i := range replies {
		byIndex[replies[i].op.Index] = &replies[i]
	}
	for i := range replies {
		r := &replies[i]
		if r.op.Class != classRead || r.op.Repeat < 0 || r.bad != "" {
			continue
		}
		orig, ok := byIndex[r.op.Repeat]
		if !ok || orig.bad != "" {
			continue
		}
		if !sameAnswer(r.body, orig.body) {
			r.bad = fmt.Sprintf("op %d: repeat differs from op %d's answer", r.op.Index, r.op.Repeat)
		}
	}
}

// sample picks up to n first-time reads, seeded, for the cross-source
// check.
func sample(replies []reply, n int, seed int64, keep func(op) bool) []*reply {
	var pool []*reply
	for i := range replies {
		r := &replies[i]
		if r.op.Class == classRead && r.op.Repeat < 0 && r.bad == "" && keep(r.op) {
			pool = append(pool, r)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool[:min(n, len(pool))]
}

// rateSlices is how many equal slices of the window the rate metrics
// take their median over, so a few seconds of interference from outside
// the benchmark move the figure less than they move the mean.
const rateSlices = 10

// sliceRate returns the median over the window's slices of weight per
// second, each reply's weight spread evenly over the time it was in
// flight.
func sliceRate(replies []reply, elapsed time.Duration, weight func(reply) float64) float64 {
	width := elapsed.Seconds() / rateSlices
	sums := make([]float64, rateSlices)
	for _, r := range replies {
		w := weight(r)
		a, b := r.began.Seconds(), r.ended.Seconds()
		if w == 0 || b <= a {
			continue
		}
		for i := max(0, int(a/width)); i < rateSlices && float64(i)*width < b; i++ {
			lo, hi := max(a, float64(i)*width), min(b, float64(i+1)*width)
			if hi > lo {
				sums[i] += w * (hi - lo) / (b - a)
			}
		}
	}
	for i := range sums {
		sums[i] /= width
	}
	return median(sums)
}

// endToEndMetrics are the metrics an untraced run reports.
var endToEndMetrics = []string{"setup_s", "records_per_s", "requests_per_s", "latency_p50_ms", "latency_tail_ms", "rss_mean_mb"}

// endToEnd computes the metrics every workload reports from its replies.
func endToEnd(cfg config, out *outcome, replies []reply, elapsed time.Duration, setups []float64, rssMB float64) {
	var (
		lat              []float64
		records, writeRe float64
		writeLat         []float64
	)
	for _, r := range replies {
		out.attempted++
		if r.bad != "" {
			out.failed++
			out.fail("%s", r.bad)
			continue
		}
		ms := float64(r.latency.Nanoseconds()) / 1e6
		switch r.op.Class {
		case classRead:
			lat = append(lat, ms)
			if !r.cached {
				records += float64(r.op.Budget)
			}
		default:
			writeLat = append(writeLat, ms)
			writeRe += float64(r.records)
		}
	}
	secs := elapsed.Seconds()
	n := len(lat)
	tailMS := percentile(lat, cfg.spec.Tail)
	out.set("setup_s", "s", median(setups))
	out.set("records_per_s", "records/s", sliceRate(replies, elapsed, func(r reply) float64 {
		if r.bad != "" || r.op.Class != classRead || r.cached {
			return 0
		}
		return float64(r.op.Budget)
	}))
	out.set("requests_per_s", "requests/s", sliceRate(replies, elapsed, func(reply) float64 { return 1 }))
	out.note("records_per_s.mean", "records/s", records/secs)
	out.note("requests_per_s.mean", "requests/s", float64(len(replies))/secs)
	out.set("latency_p50_ms", "ms", percentile(lat, 0.5))
	out.set("latency_tail_ms", "ms", tailMS)
	out.set("rss_mean_mb", "MB", rssMB)
	out.note("error_ratio", "ratio", float64(out.failed)/float64(max(out.attempted, 1)))
	out.note("latency_tail.percentile", "%", 100*cfg.spec.Tail)
	out.note("latency_tail.samples", "count", float64(n))
	out.note("latency_tail.samples_beyond", "count", float64(beyond(n, cfg.spec.Tail)))
	if cfg.spec.WriteShare > 0 {
		out.note("write_records_per_s", "records/s", writeRe/secs)
		out.note("write_latency_p50_ms", "ms", percentile(writeLat, 0.5))
		out.note("writes", "count", float64(len(writeLat)))
	}
}
