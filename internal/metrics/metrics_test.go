package metrics

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestExpositionGolden pins the exposition byte-for-byte: family order
// (sorted by name), HELP/TYPE lines, label rendering, histogram bucket
// cumulativity and the _sum/_count tail.  Any format drift breaks real
// scrapers, so this is a golden test, not a structural one.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("tlr_jobs_total", "Jobs accepted.")
	c.Add(3)
	v := r.CounterVec("tlr_jobs_ran_total", "Jobs simulated, by kind.", "kind")
	v.With("study").Add(2)
	v.With("rtm").Inc()
	g := r.Gauge("tlr_inflight_jobs", "Jobs currently admitted.")
	g.Set(4)
	g.Add(-1)
	r.GaugeFunc("tlr_queue_depth", "Replication queue depth.", func() float64 { return 7 })
	h := r.HistogramVec("tlr_job_seconds", "Job latency.", []float64{0.1, 1, 10}, "kind")
	for _, s := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.With("study").Observe(s)
	}
	hv := r.Histogram("plain_hist", "Unlabeled histogram.", []float64{1})
	hv.Observe(0.5)

	want := strings.Join([]string{
		"# HELP plain_hist Unlabeled histogram.",
		"# TYPE plain_hist histogram",
		`plain_hist_bucket{le="1"} 1`,
		`plain_hist_bucket{le="+Inf"} 1`,
		"plain_hist_sum 0.5",
		"plain_hist_count 1",
		"# HELP tlr_inflight_jobs Jobs currently admitted.",
		"# TYPE tlr_inflight_jobs gauge",
		"tlr_inflight_jobs 3",
		"# HELP tlr_job_seconds Job latency.",
		"# TYPE tlr_job_seconds histogram",
		`tlr_job_seconds_bucket{kind="study",le="0.1"} 1`,
		`tlr_job_seconds_bucket{kind="study",le="1"} 3`,
		`tlr_job_seconds_bucket{kind="study",le="10"} 4`,
		`tlr_job_seconds_bucket{kind="study",le="+Inf"} 5`,
		`tlr_job_seconds_sum{kind="study"} 56.05`,
		`tlr_job_seconds_count{kind="study"} 5`,
		"# HELP tlr_jobs_ran_total Jobs simulated, by kind.",
		"# TYPE tlr_jobs_ran_total counter",
		`tlr_jobs_ran_total{kind="rtm"} 1`,
		`tlr_jobs_ran_total{kind="study"} 2`,
		"# HELP tlr_jobs_total Jobs accepted.",
		"# TYPE tlr_jobs_total counter",
		"tlr_jobs_total 3",
		"# HELP tlr_queue_depth Replication queue depth.",
		"# TYPE tlr_queue_depth gauge",
		"tlr_queue_depth 7",
		"",
	}, "\n")

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "A.").Add(41)
	r.GaugeVec("b", "B.", "x", "y").With(`va"l`, "w,2").Set(1.5)
	h := r.Histogram("lat_seconds", "", []float64{0.5})
	h.Observe(0.25)
	h.Observe(2)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(&buf)
	if err != nil {
		t.Fatalf("ParseText: %v\nexposition:\n%s", err, buf.String())
	}
	get := func(name string, pairs ...string) float64 {
		t.Helper()
		s := Find(samples, name, pairs...)
		if len(s) != 1 {
			t.Fatalf("Find(%s %v) = %d samples, want 1", name, pairs, len(s))
		}
		return s[0].Value
	}
	if v := get("a_total"); v != 41 {
		t.Errorf("a_total = %v, want 41", v)
	}
	if v := get("b", "x", `va"l`, "y", "w,2"); v != 1.5 {
		t.Errorf("b{escaped labels} = %v, want 1.5", v)
	}
	if v := get("lat_seconds_bucket", "le", "0.5"); v != 1 {
		t.Errorf("bucket le=0.5 = %v, want 1", v)
	}
	if v := get("lat_seconds_bucket", "le", "+Inf"); v != 2 {
		t.Errorf("bucket le=+Inf = %v, want 2 (cumulative)", v)
	}
	if v := get("lat_seconds_count"); v != 2 {
		t.Errorf("count = %v, want 2", v)
	}
}

func TestRegistryValue(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Add(5)
	r.CounterVec("k_total", "", "kind").With("study").Add(2)
	r.GaugeFunc("g", "", func() float64 { return 9 })
	if v, ok := r.Value("c_total"); !ok || v != 5 {
		t.Errorf("Value(c_total) = %v, %v", v, ok)
	}
	if v, ok := r.Value("k_total", "study"); !ok || v != 2 {
		t.Errorf("Value(k_total, study) = %v, %v", v, ok)
	}
	if v, ok := r.Value("g"); !ok || v != 9 {
		t.Errorf("Value(g) = %v, %v", v, ok)
	}
	if _, ok := r.Value("nope"); ok {
		t.Error("Value(nope) found a sample")
	}
	if _, ok := r.Value("k_total", "vp"); ok {
		t.Error("Value(k_total, vp) found an unregistered label value")
	}
}

// TestCounterFuncFraction: a func-backed counter with a sub-unit total
// (seconds of GC pause, say) is exported and read back unrounded.
func TestCounterFuncFraction(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("pause_seconds_total", "", func() float64 { return 0.25 })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\npause_seconds_total 0.25\n") {
		t.Errorf("exposition lost the fraction:\n%s", buf.String())
	}
	if v, ok := r.Value("pause_seconds_total"); !ok || v != 0.25 {
		t.Errorf("Value(pause_seconds_total) = %v, %v, want 0.25", v, ok)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	// 100 samples uniform in (0, 1]: p50 ~ 0.5 within the first bucket
	// by interpolation.
	for i := 0; i < 100; i++ {
		h.Observe(float64(i%100+1) / 100)
	}
	if p := h.Quantile(0.5); math.Abs(p-0.5) > 0.05 {
		t.Errorf("p50 = %v, want ~0.5", p)
	}
	// Everything in the +Inf bucket reports the highest bound.
	h2 := newHistogram([]float64{1})
	h2.Observe(100)
	if p := h2.Quantile(0.99); p != 1 {
		t.Errorf("open-bucket p99 = %v, want lower bound 1", p)
	}
	// No observations.
	h3 := newHistogram([]float64{1})
	if p := h3.Quantile(0.5); p != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", p)
	}
}

func TestQuantileFromBuckets(t *testing.T) {
	les := []float64{0.1, 1, math.Inf(1)}
	cum := []float64{10, 90, 100}
	if p := QuantileFromBuckets(les, cum, 0.5); math.Abs(p-0.55) > 1e-9 {
		// rank 50: bucket (0.1, 1], 40/80 through it -> 0.1 + 0.9*0.5.
		t.Errorf("p50 = %v, want 0.55", p)
	}
	if p := QuantileFromBuckets(les, cum, 0.99); p != 1 {
		t.Errorf("p99 = %v, want 1 (open bucket reports lower bound)", p)
	}
}

// TestConcurrentScrape hammers one registry from writer goroutines
// while scraping it; run under -race (CI does) this is the
// registry-level concurrency proof.  The final exposition must also
// account for every recorded increment.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("ops_total", "", "kind")
	hist := r.HistogramVec("lat_seconds", "", []float64{0.001, 0.1}, "kind")
	g := r.Gauge("level", "")
	kinds := []string{"study", "rtm", "vp", "pipeline"}

	const writers = 8
	const perWriter = 2000
	var scraperWG, writerWG sync.WaitGroup
	stop := make(chan struct{})
	scraperWG.Add(1)
	go func() { // scraper
		defer scraperWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Error(err)
				return
			}
			if _, err := ParseText(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				k := kinds[(w+i)%len(kinds)]
				vec.With(k).Inc()
				hist.With(k).Observe(float64(i%7) / 100)
				g.Add(1)
				g.Add(-1)
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	scraperWG.Wait()
	var total uint64
	for _, k := range kinds {
		total += vec.With(k).Value()
	}
	if total != writers*perWriter {
		t.Errorf("counted %d ops, want %d", total, writers*perWriter)
	}
	if g.Value() != 0 {
		t.Errorf("gauge = %v, want 0", g.Value())
	}
}
