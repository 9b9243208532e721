// Command tlrbench is the repository's benchmark: it runs one named
// workload against the program built from this checkout, checks every
// output, and prints the workload's metrics as one JSON line.  See
// README.md in this directory.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/tracereuse/tlr/internal/cpu"
	"github.com/tracereuse/tlr/internal/workload"
)

// config is one invocation's settings.
type config struct {
	spec    workloadSpec
	seed    int64
	window  time.Duration
	trace   bool
	nproc   int
	server  string // tlrserve binary
	work    string // scratch directory for trace stores and span files
	traceOn time.Duration
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int
	problems          []string // failed correctness or miss-accounting checks
	metrics           map[string]metric
	// extra are diagnostics printed on the report line but not in the
	// result object.
	extra map[string]metric
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, extra: map[string]metric{}}
}

// fail records a failed check.
func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) set(name, unit string, v float64)  { o.metrics[name] = metric{v, unit} }
func (o *outcome) note(name, unit string, v float64) { o.extra[name] = metric{v, unit} }

func main() {
	name := flag.String("workload", "", "workload to run: sweep-live, replay-mem or disk-churn")
	seed := flag.Int64("seed", 1, "generator seed")
	seconds := flag.Float64("seconds", 10, "length of the timed window in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of reporting end-to-end metrics")
	server := flag.String("tlrserve", "", "tlrserve binary built from this checkout")
	work := flag.String("work", ".bench_build/work", "scratch directory")
	flag.Parse()

	spec, ok := specs[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "tlrbench: unknown workload %q (want sweep-live, replay-mem or disk-churn)\n", *name)
		os.Exit(2)
	}
	cfg := config{
		spec:    spec,
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		trace:   *traced == 1,
		nproc:   runtime.NumCPU(),
		server:  *server,
		work:    *work,
		traceOn: 4 * time.Second,
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "tlrbench:", err)
		os.Exit(1)
	}
	var (
		out *outcome
		err error
	)
	if spec.Name == "sweep-live" {
		out, err = runSweepLive(cfg)
	} else {
		out, err = runServed(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tlrbench:", err)
		os.Exit(1)
	}
	out.note("canary.step_ns_per_record", "ns", canary())
	if cfg.trace {
		// The traced run reports the per-layer table; its end-to-end
		// figures are only printed, since tracing work follows the window.
		for _, name := range endToEndMetrics {
			out.extra[name] = out.metrics[name]
			delete(out.metrics, name)
		}
		out.set("canary.step_ns_per_record", "ns", out.extra["canary.step_ns_per_record"].Value)
	}
	correct := len(out.problems) == 0 && out.failed == 0
	report(cfg, out)
	line, _ := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   out.metrics,
	})
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

// report prints the human-readable lines that precede the result.
func report(cfg config, out *outcome) {
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	mode := "end-to-end"
	if cfg.trace {
		mode = "per-layer"
	}
	fmt.Fprintf(w, "# tlrbench %s seed=%d window=%s nproc=%d (%s)\n", cfg.spec.Name, cfg.seed, cfg.window, cfg.nproc, mode)
	for _, m := range []map[string]metric{out.metrics, out.extra} {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "%-44s %16s %s\n", n, strconv.FormatFloat(m[n].Value, 'g', 6, 64), m[n].Unit)
		}
	}
	for i, p := range out.problems {
		if i == 20 {
			fmt.Fprintf(w, "CHECK FAILED: ... and %d more\n", len(out.problems)-i)
			break
		}
		fmt.Fprintln(w, "CHECK FAILED:", p)
	}
}

// canary times the functional simulator's bare step loop on one
// built-in program: a fixed amount of work whose cost tracks the
// machine, so numbers from different machines can be read side by side.
func canary() float64 {
	w, _ := workload.ByName("gcc")
	prog, err := w.Program()
	if err != nil {
		return 0
	}
	const n = 1 << 20
	var runs []float64
	for i := 0; i < 5; i++ {
		c := cpu.New(prog)
		t := time.Now()
		if _, err := c.RunContext(context.Background(), n, nil); err != nil {
			return 0
		}
		runs = append(runs, float64(time.Since(t).Nanoseconds())/n)
	}
	return median(runs)
}

// statusMB reads one memory field (VmRSS, VmHWM) of a process from
// /proc, in MB.
func statusMB(pid int, field string) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field+":" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// rssSampler samples a process's resident set every 20 ms while the
// window runs.
type rssSampler struct {
	stop, done chan struct{}
	mb         []float64
}

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			s.mb = append(s.mb, statusMB(pid, "VmRSS"))
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the mean and the 90th percentile
// of the samples.
func (s *rssSampler) finish() (mean, p90 float64) {
	close(s.stop)
	<-s.done
	for _, v := range s.mb {
		mean += v
	}
	return mean / float64(len(s.mb)), percentile(s.mb, 0.9)
}
