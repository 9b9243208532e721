package tracefile

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/tracereuse/tlr/internal/trace"
)

// drainStream collects every record a trace.Stream delivers.
func drainStream(t *testing.T, s trace.Stream) []trace.Exec {
	t.Helper()
	var out []trace.Exec
	for {
		batch, err := s.NextBatch()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := range batch {
			out = append(out, normalize(batch[i]))
		}
	}
}

// TestFileStreamMatchesCursor: the incrementally decoded stream of any
// container version, over a reader or opened by path, yields exactly
// the records the in-memory Cursor yields — the
// streamed-replay-equivalence contract at the record level.
func TestFileStreamMatchesCursor(t *testing.T) {
	tr := recordWorkload(t, "compress", 25_000)
	dir := t.TempDir()
	for _, c := range everyVersion(t, fixtureName, recordWorkload(t, fixtureWorkload, fixtureRecords), tr) {
		want := cursorRecords(t, c.want)
		version, data := c.version, c.data
		path := filepath.Join(dir, fmt.Sprintf("v%d.trc", version))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Both openers: over a reader, and by path (prefetched, and
		// seeking for version 5).
		for _, open := range []struct {
			name string
			fn   func() (*FileStream, error)
		}{
			{"reader", func() (*FileStream, error) { return NewFileStream(bytes.NewReader(data)) }},
			{"path", func() (*FileStream, error) { return OpenFileStream(path) }},
		} {
			s, err := open.fn()
			if err != nil {
				t.Fatalf("v%d %s: %v", version, open.name, err)
			}
			got := drainStream(t, s)
			s.Close()
			if len(got) != len(want) {
				t.Fatalf("v%d %s: stream yields %d records, cursor %d", version, open.name, len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("v%d %s: record %d differs:\nstream %+v\ncursor %+v", version, open.name, i, got[i], want[i])
				}
			}

			// Skip mid-stream, past at least one block boundary, lands on
			// the same records.
			s2, err := open.fn()
			if err != nil {
				t.Fatal(err)
			}
			skip := min(9_999, uint64(len(want))*7/8)
			if n, err := s2.Skip(skip); err != nil || n != skip {
				t.Fatalf("v%d %s: Skip = %d, %v", version, open.name, n, err)
			}
			tail := drainStream(t, s2)
			s2.Close()
			if !reflect.DeepEqual(tail, want[skip:]) {
				t.Fatalf("v%d %s: post-skip stream diverges", version, open.name)
			}
		}
	}
}

// TestScanMatchesLoad: the incremental one-pass scan computes the same
// digest, count and canonical size as a full Load, for every container
// version, and rejects a tampered header.
func TestScanMatchesLoad(t *testing.T) {
	tr := recordWorkload(t, "ijpeg", 20_000)
	cases := everyVersion(t, fixtureName, recordWorkload(t, fixtureWorkload, fixtureRecords), tr)
	for _, c := range cases {
		info, err := Scan(bytes.NewReader(c.data))
		if err != nil {
			t.Fatalf("v%d: %v", c.version, err)
		}
		if info.Digest != c.want.Digest() || info.Records != c.want.Records() ||
			info.CanonicalBytes != int64(c.want.CanonicalBytes()) || info.Version != c.version {
			t.Fatalf("v%d: scan %+v vs trace %s/%d/%d", c.version, info, c.want.Digest(), c.want.Records(), c.want.CanonicalBytes())
		}
	}

	// A lying digest in an indexed header must be rejected.
	data := append([]byte(nil), cases[Version2-1].data...)
	data[12+8] ^= 0xff // first digest byte
	if _, err := Scan(bytes.NewReader(data)); err == nil {
		t.Fatal("tampered digest passed Scan")
	}
}

// TestSpoolToDir: both install paths — a v5 upload renamed into place
// and a v1-v4 upload transcoded in O(batch) memory — produce a
// digest-named v5 file that loads back identically, and re-uploading
// is a no-op.
func TestSpoolToDir(t *testing.T) {
	tr := recordWorkload(t, "li", 15_000)
	for _, c := range everyVersion(t, fixtureName, recordWorkload(t, fixtureWorkload, fixtureRecords), tr) {
		version, want := c.version, c.want
		dir := t.TempDir()
		info, err := SpoolToDir(bytes.NewReader(c.data), dir)
		if err != nil {
			t.Fatalf("v%d: %v", version, err)
		}
		if info.Digest != want.Digest() || info.Records != want.Records() || info.CanonicalBytes != int64(want.CanonicalBytes()) {
			t.Fatalf("v%d: spool info %+v", version, info)
		}
		if info.Path != filepath.Join(dir, DigestFileName(want.Digest())) {
			t.Fatalf("v%d: installed at %s", version, info.Path)
		}
		back, err := OpenFile(info.Path)
		if err != nil {
			t.Fatalf("v%d: reloading spooled file: %v", version, err)
		}
		if back.Digest() != want.Digest() || back.Records() != want.Records() {
			t.Fatalf("v%d: spooled file loads as %s/%d", version, back.Digest(), back.Records())
		}
		// The installed container must itself be version 5.
		f, err := os.Open(info.Path)
		if err != nil {
			t.Fatal(err)
		}
		rd, err := NewReader(f)
		if err != nil {
			t.Fatal(err)
		}
		if rd.Version() != Version5 {
			t.Fatalf("v%d input installed as v%d container", version, rd.Version())
		}
		f.Close()

		// Idempotent re-upload.
		again, err := SpoolToDir(bytes.NewReader(c.data), dir)
		if err != nil {
			t.Fatal(err)
		}
		if again != info {
			t.Fatalf("re-upload changed info: %+v vs %+v", again, info)
		}
		// No temp files left behind.
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 1 {
			t.Fatalf("store dir holds %d entries, want only the installed file", len(ents))
		}
	}

	// A corrupt upload installs nothing and leaves no temp files.
	dir := t.TempDir()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-1] ^= 0xff
	if _, err := SpoolToDir(bytes.NewReader(data), dir); err == nil {
		t.Fatal("corrupt upload accepted")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("failed upload left %d entries behind", len(ents))
	}
}

// TestSaveAtomic: Save never leaves a truncated file at the target
// path — a failure mid-write preserves the previous contents and
// cleans up its temp file.
func TestSaveAtomic(t *testing.T) {
	tr := recordWorkload(t, "li", 2_000)
	dir := t.TempDir()
	path := filepath.Join(dir, "out.trc")

	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(orig)); err != nil {
		t.Fatalf("saved file does not load: %v", err)
	}

	// Simulate a mid-write failure through the same atomic-write helper
	// Save uses: the target must be untouched and the temp removed.
	boom := errors.New("disk full")
	err = writeFileRenamed(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("partial garbage")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the injected write failure", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, orig) {
		t.Fatal("failed save clobbered the existing file")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("failed save left %d entries (temp file not cleaned up?)", len(ents))
	}
}

// TestFileStreamConstantAllocs: replaying a trace four times as long
// must not allocate proportionally more — streamed replay memory is
// O(batch), not O(records).  The decoder's own loop is allocation-free;
// the only marginal allocations are compress/flate's per-deflate-block
// Huffman tables — transient, a handful per 16K-token deflate block,
// which over the v4 plane payload (~5-6 uncompressed bytes per record)
// works out to roughly one allocation per ~180 records — so the gate is
// a marginal rate, not an absolute count.  (The CI-gated byte-level
// version of this check lives in replaybench.MeasureStreamMemory; the
// Huffman tables are well under a byte per record there.)
func TestFileStreamConstantAllocs(t *testing.T) {
	const smallN, largeN = 20_000, 80_000
	small := recordWorkload(t, "compress", smallN)
	large := recordWorkload(t, "compress", largeN)
	dir := t.TempDir()
	smallPath := filepath.Join(dir, "small.trc")
	largePath := filepath.Join(dir, "large.trc")
	if err := small.Save(smallPath); err != nil {
		t.Fatal(err)
	}
	if err := large.Save(largePath); err != nil {
		t.Fatal(err)
	}
	replay := func(path string) func() {
		return func() {
			s, err := OpenFileStream(path)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for {
				if _, err := s.NextBatch(); err == io.EOF {
					return
				} else if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	smallAllocs := testing.AllocsPerRun(5, replay(smallPath))
	largeAllocs := testing.AllocsPerRun(5, replay(largePath))
	if margin := float64(largeN-smallN)/120 + 8; largeAllocs > smallAllocs+margin {
		t.Errorf("replaying 4x the records costs %.0f allocs vs %.0f (allowed margin %.0f): not O(batch)",
			largeAllocs, smallAllocs, margin)
	}
}
