package expt

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "regenerate testdata/figures.golden")

const goldenFile = "testdata/figures.golden"

// TestFiguresGolden renders every figure and ablation table at the test
// budget and diffs the text against testdata/figures.golden, so an engine
// rewrite that moves any number shows up as a table diff.  Regenerate
// with `go test ./internal/expt -run TestFiguresGolden -update` only when
// a change is meant to alter results.
func TestFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the full suite")
	}
	got := renderAllTables(t)
	path := filepath.FromSlash(goldenFile)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs at line %d:\n got: %q\nwant: %q", goldenFile, i+1, g, w)
		}
	}
}

// renderAllTables is tlrexp -ablations minus its wall-time footer: every
// limit-study figure, the ablations and extensions, and the Figure 9 pair.
func renderAllTables(t *testing.T) string {
	t.Helper()
	ms := testMeasurements(t)
	tables := append(LimitTables(ms), AblationTables(ms)...)
	inval, err := MeasureInvalidation(testConfig)
	if err != nil {
		t.Fatal(err)
	}
	ilp, err := MeasureILP(testConfig)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := MeasurePipeline(testConfig)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := MeasureRTM(testConfig)
	if err != nil {
		t.Fatal(err)
	}
	tables = append(tables, InvalidationTable(inval), ILPTable(ilp), PipelineTable(pipe))
	tables = append(tables, RTMTables(cells)...)
	var b strings.Builder
	for _, tb := range tables {
		b.WriteString(tb.Render())
		b.WriteString("\n")
	}
	return b.String()
}
