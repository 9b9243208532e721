package tracefile

import (
	"bytes"
	"compress/flate"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/tracereuse/tlr/internal/trace"
)

// cursorRecords returns every record of tr, as Trace.Cursor yields them.
func cursorRecords(t testing.TB, tr *Trace) []trace.Exec {
	t.Helper()
	cur := tr.Cursor()
	defer cur.Close()
	var out []trace.Exec
	var e trace.Exec
	for {
		if err := cur.Next(&e); err == io.EOF {
			return out
		} else if err != nil {
			t.Fatal(err)
		}
		out = append(out, normalize(e))
	}
}

// v5Blocks splits tr's plane-split encoding into its blocks.
func v5Blocks(tr *Trace) [][]byte {
	var out [][]byte
	for i, off := range tr.blocks {
		end := len(tr.enc)
		if i+1 < len(tr.blocks) {
			end = tr.blocks[i+1]
		}
		out = append(out, tr.enc[off:end])
	}
	return out
}

// deflateSegment compresses b from an empty window, ending it with a
// sync flush, or with the final block when last is set.
func deflateSegment(t *testing.T, b []byte, last bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(b); err != nil {
		t.Fatal(err)
	}
	if last {
		err = zw.Close()
	} else {
		err = zw.Flush()
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// v5Container assembles a version-5 container from tr's header fields,
// a segment table and the segment bytes — the crafted-input
// counterpart of Trace.WriteTo.
func v5Container(t *testing.T, tr *Trace, lens []uint64, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writePrelude(&buf, tr.n, tr.sum, uint64(tr.canonical), uint64(len(tr.enc)), tr.dict); err != nil {
		t.Fatal(err)
	}
	if err := writeV5Table(&buf, lens); err != nil {
		t.Fatal(err)
	}
	buf.Write(payload)
	return buf.Bytes()
}

// joinSegments returns the table entries and concatenated bytes of segs.
func joinSegments(segs [][]byte) ([]uint64, []byte) {
	var lens []uint64
	var payload []byte
	for _, s := range segs {
		lens = append(lens, uint64(len(s)))
		payload = append(payload, s...)
	}
	return lens, payload
}

// writeTemp saves data as a file and returns its path.
func writeTemp(t testing.TB, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "v5.trc")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestV5SeekMatchesCursor: a version-5 FileStream opened by path and
// skipped to any position — block boundaries and their neighbours,
// mid-trace, inside the last block, the end and past it — seeks to the
// target's block and then yields exactly what Trace.Cursor yields from
// there, followed by io.EOF.
func TestV5SeekMatchesCursor(t *testing.T) {
	for _, n := range []uint64{3*BlockLen + 1234, 2 * BlockLen} {
		tr := recordWorkload(t, "compress", n)
		want := cursorRecords(t, tr)
		path := filepath.Join(t.TempDir(), "v5.trc")
		if err := tr.Save(path); err != nil {
			t.Fatal(err)
		}
		for _, skip := range []uint64{0, 1, BlockLen - 1, BlockLen, BlockLen + 1, BlockLen + BlockLen/2 + 17, n - 5, n, n + 7} {
			s, err := OpenFileStream(path)
			if err != nil {
				t.Fatal(err)
			}
			target := min(skip, n)
			if got, err := s.Skip(skip); err != nil || got != target {
				t.Fatalf("n=%d: Skip(%d) = %d, %v; want %d", n, skip, got, err, target)
			}
			if s.r.v5.start != int(target/BlockLen) {
				t.Fatalf("n=%d: Skip(%d) started decoding at block %d, want a seek to block %d",
					n, skip, s.r.v5.start, target/BlockLen)
			}
			got, tail := drainStream(t, s), want[target:]
			if len(got) != len(tail) || (len(got) > 0 && !reflect.DeepEqual(got, tail)) {
				t.Fatalf("n=%d: after Skip(%d) the stream yields %d records that differ from the cursor's %d",
					n, skip, len(got), len(tail))
			}
			if _, err := s.NextBatch(); err != io.EOF {
				t.Fatalf("n=%d: after Skip(%d) and a drain: err = %v, want io.EOF", n, skip, err)
			}
			s.Close()
		}
	}
}

// TestV5SkipAfterRead: a skip that lands beyond the block being decoded
// seeks forward, one that stays inside it decodes forward, and both
// agree with the Cursor.
func TestV5SkipAfterRead(t *testing.T) {
	const n = 5 * BlockLen
	tr := recordWorkload(t, "li", n)
	want := cursorRecords(t, tr)
	path := filepath.Join(t.TempDir(), "v5.trc")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	s, err := OpenFileStream(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pos := uint64(0)
	expect := func(what string) {
		t.Helper()
		batch, err := s.NextBatch()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for i := range batch {
			if normalize(batch[i]) != want[pos] {
				t.Fatalf("%s: record %d differs from the cursor's", what, pos)
			}
			pos++
		}
	}
	skip := func(k uint64, seek bool) {
		t.Helper()
		before := s.r.v5.start
		if got, err := s.Skip(k); err != nil || got != k {
			t.Fatalf("Skip(%d) = %d, %v", k, got, err)
		}
		pos += k
		if seeked := s.r.v5.start != before; seeked != seek {
			t.Fatalf("Skip(%d) to %d: seeked=%v, want %v", k, pos, seeked, seek)
		}
	}
	expect("first batch")
	skip(100, false) // inside block 0
	expect("after an in-block skip")
	skip(2*BlockLen, true) // into block 2
	expect("after a seek")
	skip(BlockLen-BatchLen, true) // into block 3 again past its start
	expect("after a second seek")
}

// TestV5WriteMatchesSpec: Trace.WriteTo emits exactly the documented
// layout — prelude, one table entry per block, then each block
// compressed from an empty window, the last one ending the stream — and
// the segments concatenate to one valid DEFLATE stream that inflates to
// the v4 block bytes.
func TestV5WriteMatchesSpec(t *testing.T) {
	tr := recordWorkload(t, "gcc", 2*BlockLen+99)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	blocks := v5Blocks(tr)
	var segs [][]byte
	for i, b := range blocks {
		segs = append(segs, deflateSegment(t, b, i == len(blocks)-1))
	}
	lens, payload := joinSegments(segs)
	if want := v5Container(t, tr, lens, payload); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteTo wrote %d bytes that differ from the %d-byte spec layout", buf.Len(), len(want))
	}
	inflated, err := io.ReadAll(flate.NewReader(bytes.NewReader(payload)))
	if err != nil {
		t.Fatalf("segments do not form one DEFLATE stream: %v", err)
	}
	if !bytes.Equal(inflated, tr.enc) {
		t.Fatal("the segment stream does not inflate to the v4 blocks")
	}
}

// TestV5RejectsDefects: a version-5 file whose table or segments are
// wrong is rejected — by a sequential read (Load, Scan) and by a
// path-opened stream — never misread.  Defects inside a segment name
// the block's first record and the segment's offset.
func TestV5RejectsDefects(t *testing.T) {
	tr := recordWorkload(t, "compress", 3*BlockLen+1234)
	blocks := v5Blocks(tr)
	last := len(blocks) - 1
	segments := func() [][]byte {
		var segs [][]byte
		for i, b := range blocks {
			segs = append(segs, deflateSegment(t, b, i == last))
		}
		return segs
	}
	seg1Off := func() string {
		return "record 4096 (segment offset " + strconv.Itoa(len(deflateSegment(t, blocks[0], false))) + "): block 1"
	}
	// A valid v4 payload: one DEFLATE stream whose window runs across
	// blocks, sync-flushed at each block boundary so a v5 table can
	// describe it, but with later segments depending on earlier ones.
	sharedWindow := func() ([]uint64, []byte) {
		var buf bytes.Buffer
		zw, err := flate.NewWriter(&buf, flate.DefaultCompression)
		if err != nil {
			t.Fatal(err)
		}
		var lens []uint64
		for i, b := range blocks {
			start := buf.Len()
			zw.Write(b)
			if i == last {
				zw.Close()
			} else {
				zw.Flush()
			}
			lens = append(lens, uint64(buf.Len()-start))
		}
		return lens, buf.Bytes()
	}

	cases := []struct {
		name string
		data func() []byte
		want string // substring of the sequential read's error ("" = any)
	}{
		{"short table", func() []byte {
			lens, payload := joinSegments(segments())
			return v5Container(t, tr, lens[:len(lens)-1], payload)
		}, ""},
		{"overlong table", func() []byte {
			lens, payload := joinSegments(segments())
			return v5Container(t, tr, append(lens, lens[0]), payload)
		}, ""},
		{"zero-length entry", func() []byte {
			lens, payload := joinSegments(segments())
			lens[1] = 0
			return v5Container(t, tr, lens, payload)
		}, "segment table entry 1 declares 0 bytes"},
		{"oversized entry", func() []byte {
			lens, payload := joinSegments(segments())
			lens[2] = maxV5Segment + 1
			return v5Container(t, tr, lens, payload)
		}, "segment table entry 2 declares"},
		{"segment inflates past its block", func() []byte {
			segs := segments()
			segs[1] = deflateSegment(t, append(append([]byte(nil), blocks[1]...), 0), false)
			lens, payload := joinSegments(segs)
			return v5Container(t, tr, lens, payload)
		}, seg1Off() + ": segment inflates past the end of its block"},
		{"segment inflates short of its block", func() []byte {
			segs := segments()
			segs[1] = deflateSegment(t, blocks[1][:len(blocks[1])-1], false)
			lens, payload := joinSegments(segs)
			return v5Container(t, tr, lens, payload)
		}, seg1Off()},
		{"non-final segment ends the stream", func() []byte {
			segs := segments()
			segs[1] = deflateSegment(t, blocks[1], true)
			lens, payload := joinSegments(segs)
			return v5Container(t, tr, lens, payload)
		}, seg1Off() + ": segment ends the DEFLATE stream before the final block"},
		{"final segment does not end the stream", func() []byte {
			segs := segments()
			segs[last] = deflateSegment(t, blocks[last], false)
			lens, payload := joinSegments(segs)
			return v5Container(t, tr, lens, payload)
		}, "final segment does not end the DEFLATE stream"},
		{"a partial block after the block's data", func() []byte {
			// A stored-block header promising 5 bytes the segment does
			// not hold: the segment no longer ends at a block boundary.
			segs := segments()
			segs[1] = append(segs[1], 0x00, 0x05, 0x00, 0xfa, 0xff)
			lens, payload := joinSegments(segs)
			return v5Container(t, tr, lens, payload)
		}, seg1Off()},
		{"a segment ending mid-block", func() []byte {
			segs := segments()
			segs[1] = segs[1][:len(segs[1])-4] // drop the sync flush's LEN/NLEN
			lens, payload := joinSegments(segs)
			return v5Container(t, tr, lens, payload)
		}, seg1Off()},
		{"trailing bytes", func() []byte {
			lens, payload := joinSegments(segments())
			return append(v5Container(t, tr, lens, payload), 0)
		}, "trailing data after the final segment"},
		{"v4 payload behind a v5 table", func() []byte {
			lens, payload := sharedWindow()
			return v5Container(t, tr, lens, payload)
		}, "block 1"},
	}

	// The unmodified assembly is valid: every rejection below is the
	// defect's doing.
	lens, payload := joinSegments(segments())
	if _, err := Load(bytes.NewReader(v5Container(t, tr, lens, payload))); err != nil {
		t.Fatalf("valid assembly rejected: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.data()
			_, err := Load(bytes.NewReader(data))
			if err == nil {
				t.Fatal("Load accepted the defective file")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Load error %q does not carry %q", err, tc.want)
			}
			if _, err := Scan(bytes.NewReader(data)); err == nil {
				t.Error("Scan accepted the defective file")
			}
			if err := readPath(writeTemp(t, data)); err == nil {
				t.Error("a path-opened stream read the defective file to the end without error")
			}
		})
	}
}

// readPath opens a trace file by path and drains it, returning the
// first error.
func readPath(path string) error {
	s, err := OpenFileStream(path)
	if err != nil {
		return err
	}
	defer s.Close()
	for {
		if _, err := s.NextBatch(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}
