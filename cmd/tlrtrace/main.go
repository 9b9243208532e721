// Command tlrtrace records, inspects, analyses and uploads dynamic
// instruction trace files (the repository's ATOM-equivalent toolflow).
// It is a thin client of the public tlr trace-source API: record wraps
// tlr.Record, analyze replays the file through tlr.Run requests, and
// push uploads it to a tlrserve trace store for digest-referenced
// sweeps.
//
// Usage:
//
//	tlrtrace record -w compress -n 200000 -o compress.trc
//	tlrtrace record -f prog.s -n 100000 -skip 1000 -o prog.trc
//	tlrtrace dump -n 20 compress.trc
//	tlrtrace stats compress.trc
//	tlrtrace stat compress.trc
//	tlrtrace digest compress.trc
//	tlrtrace analyze -window 256 compress.trc
//	tlrtrace ingest -format csv -addr-col 0 -op-col 1 -o mem.trc mem.csv
//	tlrtrace hist mem.trc
//	tlrtrace hist -csv -server http://localhost:8321 sha256:…
//	tlrtrace concat -o whole.trc win1.trc win2.trc
//	tlrtrace push -server http://localhost:8321 compress.trc
//	tlrtrace pull -server http://localhost:8321 -o got.trc sha256:…
//
// `analyze` runs the trace-driven request kinds (study + value
// prediction) directly from the file — no re-simulation.  `stat`
// prints the file's encoding statistics (container version, record
// count, bytes per record in the canonical, delta and at-rest forms),
// so format wins are observable without a benchmark run.  `push`
// prints the content digest the server will answer to, so a follow-up
// run is one POST away:
//
//	{"trace": {"digest": "sha256:…"}, "study": {"budget": 100000}}
//
// `ingest` converts a foreign trace — a CSV address trace with a
// configurable column layout, or the "PC op" text listing format,
// gzip-transparent either way — into a canonical trace file that
// replays, stores and analyses like any recording.  `hist` prints the
// reuse-distance histogram table (exact LRU stack distances, binned per
// operand-location class); its argument is a local trace file, or a
// sha256: digest analysed remotely through -server so the stored trace
// never crosses the wire.
//
// `concat` stitches several recordings into one file (adjacent
// windows of one program concatenate to the stream — and digest — a
// single long recording would have produced) and prints the combined
// content digest like `digest` does.
//
// `pull` is push's inverse: it downloads a stored trace by digest,
// validates it, and verifies the content digest matches the one asked
// for before writing the file — a recording made on one host can be
// fetched and inspected on another.
//
// Both push and pull retry transient failures (connection errors and
// 5xx responses) with doubling backoff; -retries caps the attempts.
// 4xx responses are never retried — they are the server's answer.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/tracereuse/tlr"
	"github.com/tracereuse/tlr/internal/analytics"
	"github.com/tracereuse/tlr/internal/isa"
	"github.com/tracereuse/tlr/internal/trace"
	"github.com/tracereuse/tlr/internal/tracefile"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "record":
		record(args)
	case "dump":
		dump(args)
	case "stats":
		statsCmd(args)
	case "stat":
		statCmd(args)
	case "digest":
		digestCmd(args)
	case "analyze":
		analyze(args)
	case "hist":
		hist(args)
	case "ingest":
		ingestCmd(args)
	case "concat":
		concat(args)
	case "push":
		push(args)
	case "pull":
		pull(args)
	default:
		fmt.Fprintf(os.Stderr, "tlrtrace: unknown subcommand %q\n\n", cmd)
		usage()
	}
}

// usage prints the full subcommand synopsis to stderr and exits
// non-zero; it answers both a bare `tlrtrace` and an unknown verb.
func usage() {
	fmt.Fprint(os.Stderr, `usage: tlrtrace <command> [flags] [args]

commands:
  record   record a workload or assembly program into a trace file
  dump     print the first records of a trace file
  stats    print a trace's instruction-mix statistics
  stat     print a trace file's encoding statistics
  digest   print a trace file's content digest
  analyze  run the trace-driven reuse and value-prediction analyses on a file
  hist     print a trace's reuse-distance histogram (file, or sha256: digest with -server)
  ingest   convert a foreign trace (CSV address trace, PC-op text) into a trace file
  concat   stitch several recordings into one trace file
  push     upload a trace file to a tlrserve store
  pull     download a stored trace by digest

run 'tlrtrace <command> -h' for a command's flags.
`)
	os.Exit(2)
}

// concat stitches several recordings into one version-5 trace file:
// each input streams through tlr.Concat (no input is materialised —
// only the growing recording of the combined stream is in memory) and
// the result is saved and digest-printed like `tlrtrace digest`.
func concat(args []string) {
	fs := flag.NewFlagSet("concat", flag.ExitOnError)
	out := fs.String("o", "", "output trace file (required)")
	_ = fs.Parse(args)
	if fs.NArg() < 1 {
		fail(fmt.Errorf("concat: need at least one input trace file"))
	}
	if *out == "" {
		fail(fmt.Errorf("concat: -o required"))
	}
	srcs := make([]tlr.TraceSource, fs.NArg())
	for i, path := range fs.Args() {
		srcs[i] = tlr.TraceFile(path)
	}
	t, err := tlr.Materialize(tlr.Concat(srcs...))
	if err != nil {
		fail(err)
	}
	if err := t.Save(*out); err != nil {
		fail(err)
	}
	size := t.Size()
	if fi, err := os.Stat(*out); err == nil {
		size = int(fi.Size())
	}
	fmt.Printf("concatenated %d files into %s (%d records, %d bytes)\n",
		fs.NArg(), *out, t.Records(), size)
	fmt.Println(t.Digest())
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	wname := fs.String("w", "", "workload name")
	file := fs.String("f", "", "assembly file")
	n := fs.Uint64("n", 200_000, "instructions to record")
	skip := fs.Uint64("skip", 0, "instructions to skip first")
	out := fs.String("o", "", "output trace file (required)")
	_ = fs.Parse(args)
	if *out == "" {
		fail(fmt.Errorf("record: -o required"))
	}

	spec := tlr.RecordSpec{Workload: *wname, Skip: *skip, Budget: *n}
	if *file != "" {
		src, err := os.ReadFile(*file)
		if err != nil {
			fail(err)
		}
		spec.Source = string(src)
	}
	if (spec.Workload == "") == (spec.Source == "") {
		fail(fmt.Errorf("record: need exactly one of -w or -f"))
	}

	t, err := tlr.Record(context.Background(), spec)
	if err != nil {
		fail(err)
	}
	if err := t.Save(*out); err != nil {
		fail(err)
	}
	size := t.Size()
	if fi, err := os.Stat(*out); err == nil {
		size = int(fi.Size())
	}
	fmt.Printf("recorded %d instructions to %s (%d bytes, %.1f B/instr; %.1f B/instr canonical)\n",
		t.Records(), *out, size, float64(size)/float64(max(t.Records(), 1)),
		float64(t.CanonicalSize())/float64(max(t.Records(), 1)))
	fmt.Printf("digest %s\n", t.Digest())
}

func openTrace(path string) *tracefile.Reader {
	f, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	r, err := tracefile.NewReader(f)
	if err != nil {
		fail(err)
	}
	return r
}

func dump(args []string) {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	n := fs.Uint64("n", 20, "records to print")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fail(fmt.Errorf("dump: need a trace file"))
	}
	r := openTrace(fs.Arg(0))
	if err := r.ForEach(func(e *trace.Exec) bool {
		fmt.Println(e)
		return r.Records() < *n
	}); err != nil {
		fail(err)
	}
}

func statsCmd(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fail(fmt.Errorf("stats: need a trace file"))
	}
	r := openTrace(fs.Arg(0))

	var total, branches, taken, memReads, memWrites, sideEff uint64
	classCount := map[isa.Class]uint64{}
	pcs := map[uint64]struct{}{}
	if err := r.ForEach(func(e *trace.Exec) bool {
		total++
		info := isa.InfoOf(e.Op)
		classCount[info.Class]++
		pcs[e.PC] = struct{}{}
		if info.Branch {
			branches++
			if e.Next != e.PC+1 {
				taken++
			}
		}
		if info.MemRead {
			memReads++
		}
		if info.MemWrite {
			memWrites++
		}
		if e.SideEffect {
			sideEff++
		}
		return true
	}); err != nil {
		fail(err)
	}
	pct := func(n uint64) float64 { return 100 * float64(n) / float64(total) }
	fmt.Printf("%d instructions, %d static PCs\n", total, len(pcs))
	names := map[isa.Class]string{
		isa.ClassNop: "nop", isa.ClassIntALU: "int alu", isa.ClassIntMul: "int mul",
		isa.ClassIntDiv: "int div", isa.ClassMem: "memory", isa.ClassBranch: "branch",
		isa.ClassFPAdd: "fp add", isa.ClassFPMul: "fp mul", isa.ClassFPDiv: "fp div",
		isa.ClassFPSqrt: "fp sqrt", isa.ClassSys: "system",
	}
	for cls := isa.ClassNop; cls <= isa.ClassSys; cls++ {
		if n := classCount[cls]; n > 0 {
			fmt.Printf("  %-8s %8d  (%.1f%%)\n", names[cls], n, pct(n))
		}
	}
	fmt.Printf("  loads %.1f%%  stores %.1f%%  branches %.1f%% (%.1f%% taken)  side-effects %d\n",
		pct(memReads), pct(memWrites), pct(branches), 100*float64(taken)/float64(max(branches, 1)), sideEff)
}

// statCmd prints one trace file's encoding statistics: which container
// version carries it, and what the stream costs per record in each
// form — at rest (the file as stored), canonically (the v1/v2 record
// encoding the digest covers), and in memory (the plane-split v4
// form a trace store holds).
func statCmd(args []string) {
	fs := flag.NewFlagSet("stat", flag.ExitOnError)
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fail(fmt.Errorf("stat: need a trace file"))
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fail(err)
	}
	r, err := tracefile.NewReader(bytes.NewReader(data))
	if err != nil {
		fail(err)
	}
	t, err := tracefile.Load(bytes.NewReader(data))
	if err != nil {
		fail(err)
	}
	per := func(bytes int) float64 { return float64(bytes) / float64(max(t.Records(), 1)) }
	canon := max(t.CanonicalBytes(), 1)
	fmt.Printf("%s: version %d container, %d records\n", fs.Arg(0), r.Version(), t.Records())
	fmt.Printf("  digest        %s\n", t.Digest())
	fmt.Printf("  file          %9d bytes  %6.2f B/record  (%.2fx canonical)\n",
		len(data), per(len(data)), float64(len(data))/float64(canon))
	fmt.Printf("  canonical     %9d bytes  %6.2f B/record  (v1/v2 record encoding)\n",
		t.CanonicalBytes(), per(t.CanonicalBytes()))
	fmt.Printf("  in-memory v4  %9d bytes  %6.2f B/record  (%.2fx canonical, %d-location dictionary)\n",
		t.Bytes(), per(t.Bytes()), float64(t.Bytes())/float64(canon), t.DictLen())
}

func digestCmd(args []string) {
	fs := flag.NewFlagSet("digest", flag.ExitOnError)
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fail(fmt.Errorf("digest: need a trace file"))
	}
	t, err := tlr.OpenTrace(fs.Arg(0))
	if err != nil {
		fail(err)
	}
	fmt.Println(t.Digest())
}

func analyze(args []string) {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	window := fs.Int("window", 256, "instruction window (0 = infinite)")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fail(fmt.Errorf("analyze: need a trace file"))
	}
	t, err := tlr.OpenTrace(fs.Arg(0))
	if err != nil {
		fail(err)
	}
	budget := t.Records()
	if budget == 0 {
		fail(fmt.Errorf("analyze: empty trace"))
	}

	// Both trace-driven analyses replay the same loaded source; the
	// batch shares it without re-reading the file.
	res, err := tlr.RunBatch(context.Background(), []tlr.Request{
		{ID: "study", Trace: t, Study: &tlr.StudyConfig{Budget: budget, Window: *window}},
		{ID: "vp", Trace: t, VP: &tlr.VPConfig{Window: *window}, Budget: budget},
	})
	if err != nil {
		fail(err)
	}
	ri, rt, rv := res[0].Study.ILR, res[0].Study.TLR, *res[1].VP
	fmt.Printf("%d instructions from file, window=%d\n", ri.Instructions, *window)
	fmt.Printf("  digest            %s\n", t.Digest())
	fmt.Printf("  reusability       %6.1f%%   predictability %6.1f%%\n",
		100*ri.Reusability(), 100*rv.PredictedFraction())
	fmt.Printf("  ILR speed-up      %6.2f\n", ri.Speedups[0])
	fmt.Printf("  TLR speed-up      %6.2f   (avg trace %.1f instr)\n", rt.Speedups[0], rt.Stats.AvgLen())
	fmt.Printf("  VP  speed-up      %6.2f   (last-value limit)\n", rv.Speedup)
}

// ingestCmd converts a foreign trace file — a CSV address trace or the
// "PC op" text format, gzip-transparent — into a canonical trace file,
// the offline twin of tlrserve's POST /v1/ingest.
func ingestCmd(args []string) {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	format := fs.String("format", "csv", "foreign format: csv or pc")
	addrCol := fs.Int("addr-col", 0, "csv: 0-based address column")
	opCol := fs.Int("op-col", -1, "csv: read/write column (-1 = every row is a read)")
	pcCol := fs.Int("pc-col", -1, "csv: PC column (-1 = synthesize sequential PCs)")
	comma := fs.String("comma", ",", "csv: field separator (one character)")
	header := fs.Bool("header", false, "csv: skip the first non-blank line")
	addrBase := fs.Int("addr-base", 0, "csv: address radix (0 = auto by 0x prefix, 10, 16)")
	lenient := fs.Bool("lenient", false, "skip malformed lines (and count them) instead of failing")
	out := fs.String("o", "", "output trace file (required)")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fail(fmt.Errorf("ingest: need a foreign trace file (or - for stdin)"))
	}
	if *out == "" {
		fail(fmt.Errorf("ingest: -o required"))
	}

	var f tlr.IngestFormat
	switch *format {
	case "csv":
		runes := []rune(*comma)
		if len(runes) != 1 {
			fail(fmt.Errorf("ingest: -comma %q is not a single character", *comma))
		}
		f.CSV = &tlr.CSVFormat{
			AddrCol:  *addrCol,
			OpCol:    *opCol,
			PCCol:    *pcCol,
			Comma:    runes[0],
			Header:   *header,
			AddrBase: *addrBase,
		}
	case "pc", "pctext":
		f.PCText = &tlr.PCTextFormat{}
	default:
		fail(fmt.Errorf("ingest: unknown format %q (want csv or pc)", *format))
	}

	in := os.Stdin
	if fs.Arg(0) != "-" {
		var err error
		if in, err = os.Open(fs.Arg(0)); err != nil {
			fail(err)
		}
		defer in.Close()
	}
	t, st, err := tlr.Ingest(in, f, tlr.IngestOptions{Lenient: *lenient})
	if err != nil {
		fail(err)
	}
	if err := t.Save(*out); err != nil {
		fail(err)
	}
	size := t.Size()
	if fi, err := os.Stat(*out); err == nil {
		size = int(fi.Size())
	}
	fmt.Printf("ingested %d records from %d lines to %s (%d rejected, %d bytes)\n",
		st.Records, st.Lines, *out, st.Rejected, size)
	fmt.Printf("digest %s\n", t.Digest())
}

// hist prints a trace's reuse-distance histogram table — the binned
// exact LRU stack distances per operand-location class.  The argument
// is a local trace file, or a sha256: digest analysed remotely through
// -server's POST /v1/analyze (the stored trace never leaves the
// server).
func hist(args []string) {
	fs := flag.NewFlagSet("hist", flag.ExitOnError)
	csvOut := fs.Bool("csv", false, "emit the table as CSV")
	skip := fs.Uint64("skip", 0, "records to skip before analysing")
	budget := fs.Uint64("budget", 0, "records to analyse (0 = the whole trace)")
	server := fs.String("server", "", "tlrserve base URL (required for a sha256: digest argument)")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fail(fmt.Errorf("hist: need a trace file or a sha256: digest"))
	}
	arg := fs.Arg(0)

	var res tlr.Result
	if strings.HasPrefix(arg, "sha256:") {
		if *server == "" {
			fail(fmt.Errorf("hist: a digest argument needs -server"))
		}
		req := tlr.Request{Trace: tlr.TraceRef(arg), Analyze: &tlr.AnalyzeConfig{}, Skip: *skip, Budget: *budget}
		body, err := json.Marshal(req)
		if err != nil {
			fail(err)
		}
		resp, err := http.Post(*server+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			fail(fmt.Errorf("hist: %w", err))
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			fail(fmt.Errorf("hist: %s: %s", resp.Status, msg))
		}
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			fail(err)
		}
	} else {
		t, err := tlr.OpenTrace(arg)
		if err != nil {
			fail(err)
		}
		res, err = tlr.Run(context.Background(),
			tlr.Request{Trace: t, Analyze: &tlr.AnalyzeConfig{}, Skip: *skip, Budget: *budget})
		if err != nil {
			fail(err)
		}
	}
	if res.Err != nil {
		fail(res.Err)
	}
	if res.Analyze == nil {
		fail(fmt.Errorf("hist: response carries no analysis"))
	}
	writeHist(os.Stdout, res.Analyze, *csvOut)
}

// writeHist renders the figure table: one row per operand-location
// class, the exemplar distance bins as columns.
func writeHist(w io.Writer, a *tlr.AnalyzeResult, asCSV bool) {
	classes := []struct {
		name string
		h    analytics.Hist
	}{
		{analytics.ClassLabel(trace.KindIntReg), a.IntReg},
		{analytics.ClassLabel(trace.KindFPReg), a.FPReg},
		{analytics.ClassLabel(trace.KindMem), a.Mem},
	}
	if asCSV {
		fmt.Fprint(w, "class,accesses,cold")
		for i := 0; i < analytics.NumBins; i++ {
			fmt.Fprintf(w, ",%s", analytics.BinLabel(i))
		}
		fmt.Fprintln(w, ",distinct")
		for _, c := range classes {
			fmt.Fprintf(w, "%s,%d,%d", c.name, c.h.Accesses, c.h.Cold)
			for _, b := range c.h.Bins {
				fmt.Fprintf(w, ",%d", b)
			}
			fmt.Fprintf(w, ",%d\n", c.h.Distinct)
		}
		return
	}
	fmt.Fprintf(w, "reuse distances over %d records\n", a.Records)
	fmt.Fprintf(w, "%-8s %9s %9s", "class", "accesses", "cold")
	for i := 0; i < analytics.NumBins; i++ {
		fmt.Fprintf(w, " %9s", analytics.BinLabel(i))
	}
	fmt.Fprintf(w, " %9s\n", "distinct")
	for _, c := range classes {
		fmt.Fprintf(w, "%-8s %9d %9d", c.name, c.h.Accesses, c.h.Cold)
		for _, b := range c.h.Bins {
			fmt.Fprintf(w, " %9d", b)
		}
		fmt.Fprintf(w, " %9d\n", c.h.Distinct)
	}
}

func push(args []string) {
	fs := flag.NewFlagSet("push", flag.ExitOnError)
	server := fs.String("server", "http://localhost:8321", "tlrserve base URL")
	retries := fs.Int("retries", 3, "attempts on connection errors and 5xx responses")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fail(fmt.Errorf("push: need a trace file"))
	}
	// The file is re-opened per attempt: a retried POST must send the
	// whole body again, not whatever a half-consumed reader has left.
	resp, err := doRetry(*retries, 200*time.Millisecond, func() (*http.Response, error) {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			fail(err)
		}
		defer f.Close()
		return http.Post(*server+"/v1/traces", "application/octet-stream", f)
	})
	if err != nil {
		fail(fmt.Errorf("push: %w", err))
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		fail(fmt.Errorf("push: %s: %s", resp.Status, body))
	}
	fmt.Print(string(body))
}

// pull downloads a trace from a tlrserve store by content digest,
// validates the received file with the same decoder uploads go
// through, verifies its digest is the one asked for, and writes the
// raw bytes to disk.
func pull(args []string) {
	fs := flag.NewFlagSet("pull", flag.ExitOnError)
	server := fs.String("server", "http://localhost:8321", "tlrserve base URL")
	out := fs.String("o", "", "output trace file (required)")
	maxMB := fs.Int64("max-mb", 1024, "largest accepted download in MiB")
	retries := fs.Int("retries", 3, "attempts on connection errors and 5xx responses")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fail(fmt.Errorf("pull: need a trace digest (like sha256:…)"))
	}
	if *out == "" {
		fail(fmt.Errorf("pull: -o required"))
	}
	digest := fs.Arg(0)
	resp, err := doRetry(*retries, 200*time.Millisecond, func() (*http.Response, error) {
		return http.Get(*server + "/v1/traces/" + digest)
	})
	if err != nil {
		fail(fmt.Errorf("pull: %w", err))
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		fail(fmt.Errorf("pull: %s: %s", resp.Status, body))
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, *maxMB<<20+1))
	if err != nil {
		fail(err)
	}
	if int64(len(data)) > *maxMB<<20 {
		fail(fmt.Errorf("pull: response exceeds %d MiB (raise -max-mb)", *maxMB))
	}
	t, err := tlr.ReadTrace(bytes.NewReader(data))
	if err != nil {
		fail(fmt.Errorf("pull: invalid trace file from server: %w", err))
	}
	if t.Digest() != digest {
		fail(fmt.Errorf("pull: server returned digest %s, asked for %s", t.Digest(), digest))
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("pulled %d records to %s (%d bytes, %.1f B/instr)\n",
		t.Records(), *out, len(data), float64(len(data))/float64(max(t.Records(), 1)))
	fmt.Printf("digest %s\n", t.Digest())
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tlrtrace:", err)
	os.Exit(1)
}
