package replaybench

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"testing"

	"github.com/tracereuse/tlr"
	"github.com/tracereuse/tlr/internal/tracefile"
)

// TestFileGridMatchesMemoryGrid: at a small budget, the replay grid
// over a recording saved to a file and opened with tlr.TraceFile
// answers byte-identically to the same grid over the in-memory
// recording.  The skip lands mid-block past two block boundaries, so
// the file-backed cells take the seek path.
func TestFileGridMatchesMemoryGrid(t *testing.T) {
	const skip, budget = 2*tracefile.BlockLen + 123, 3_000
	ctx := context.Background()
	rec, err := tlr.Record(ctx, tlr.RecordSpec{Workload: Workload, Budget: skip + budget})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rec.trc")
	if err := rec.Save(path); err != nil {
		t.Fatal(err)
	}
	answers := func(src tlr.TraceSource) []byte {
		t.Helper()
		b := tlr.NewBatcher(tlr.BatchOptions{Workers: 1})
		defer b.Close()
		res, err := b.RunBatch(ctx, GridAt(src, skip, budget))
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("cell %d: %v", i, r.Err)
			}
		}
		out, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	mem, file := answers(rec), answers(tlr.TraceFile(path))
	if !bytes.Equal(mem, file) {
		t.Fatalf("file-backed grid answers differ from the in-memory grid:\nmemory %s\nfile   %s", mem, file)
	}
}
