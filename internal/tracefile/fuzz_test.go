package tracefile

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"

	"github.com/tracereuse/tlr/internal/trace"
)

// FuzzTraceReader hardens the trace decoder against untrusted input:
// cmd/tlrserve parses client uploads with exactly this code, so no byte
// sequence may panic it, loop it forever, or let a malformed file
// masquerade as a valid trace.  Accepted inputs must satisfy the decoder
// invariants, and Load must round-trip to an identical, identically
// digested trace.
func FuzzTraceReader(f *testing.F) {
	// Seeds: the committed fixtures of a real recorded stream in the
	// first four container versions (see TestCrossVersionIdentical),
	// plus truncations and header corruptions of each.
	for _, version := range legacyVersions {
		seed := readFixture(f, fixtureName, version)
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		f.Add(seed[:13])
		mut := append([]byte(nil), seed...)
		mut[9] ^= 0xff
		f.Add(mut)
		// One flip inside the record region (for v3/v4: the compressed
		// frame), so the fuzzer starts from near-valid damaged payloads.
		mut2 := append([]byte(nil), seed...)
		mut2[len(mut2)*3/4] ^= 0x20
		f.Add(mut2)
		// And one flip in the prelude's dictionary region (v3/v4), the
		// only uncompressed varint surface.
		mut3 := append([]byte(nil), seed...)
		mut3[12+8+32+8+8+4] ^= 0x81
		f.Add(mut3)
	}
	f.Add([]byte("TLRTRACE"))
	f.Add([]byte{})

	// Version-5 seeds: a one-segment and a two-block stream, each whole,
	// with a flipped segment-table byte, and with a flip inside the
	// second segment.
	for _, tr := range []*Trace{recordWorkload(f, "compress", 500), recordWorkload(f, "compress", BlockLen+300)} {
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		seed := buf.Bytes()
		table := 12 + 8 + 32 + 8 + 8 + 4
		for _, l := range tr.dict {
			table += len(binary.AppendUvarint(nil, rotLoc(l)))
		}
		f.Add(seed)
		mut := append([]byte(nil), seed...)
		mut[table] ^= 0x04
		f.Add(mut)
		mut2 := append([]byte(nil), seed...)
		mut2[len(mut2)-20] ^= 0x10
		f.Add(mut2)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Streaming decode: every accepted record must satisfy the Exec
		// invariants the engines rely on.
		var n uint64
		streamErr := r.ForEach(func(e *trace.Exec) bool {
			if !e.Op.Valid() {
				t.Fatalf("record %d: invalid op %d accepted", n, e.Op)
			}
			if int(e.NIn) > len(e.In) || int(e.NOut) > len(e.Out) {
				t.Fatalf("record %d: ref counts %d/%d out of range", n, e.NIn, e.NOut)
			}
			n++
			return true
		})
		if streamErr != nil && streamErr == io.EOF {
			t.Fatal("ForEach leaked io.EOF")
		}

		// Load path: anything it accepts must round-trip bit-exactly.
		loaded, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if loaded.Records() != n || streamErr != nil {
			t.Fatalf("Load accepted %d records but streaming saw %d (err %v)",
				loaded.Records(), n, streamErr)
		}
		var out bytes.Buffer
		if _, err := loaded.WriteTo(&out); err != nil {
			t.Fatalf("WriteTo of loaded trace: %v", err)
		}
		again, err := Load(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("reloading written trace: %v", err)
		}
		if again.Digest() != loaded.Digest() || again.Records() != loaded.Records() {
			t.Fatalf("round trip changed identity: %s/%d vs %s/%d",
				loaded.Digest(), loaded.Records(), again.Digest(), again.Records())
		}

		// An accepted version-5 file seeks: a path-opened stream skipped
		// to any block boundary yields what sequential decode yields.
		if binary.LittleEndian.Uint32(data[8:12]) != Version5 {
			return
		}
		want := cursorRecords(t, loaded)
		path := writeTemp(t, data)
		for at := uint64(0); at <= loaded.Records(); at += BlockLen {
			s, err := OpenFileStream(path)
			if err != nil {
				t.Fatalf("accepted v5 file does not open by path: %v", err)
			}
			if got, err := s.Skip(at); err != nil || got != at {
				t.Fatalf("Skip(%d) = %d, %v", at, got, err)
			}
			var got []trace.Exec
			for {
				batch, err := s.NextBatch()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("after Skip(%d): %v", at, err)
				}
				for i := range batch {
					got = append(got, normalize(batch[i]))
				}
			}
			s.Close()
			if tail := want[at:]; len(got) != len(tail) || (len(got) > 0 && !reflect.DeepEqual(got, tail)) {
				t.Fatalf("seek to record %d yields %d records, sequential decode %d from there", at, len(got), len(tail))
			}
		}
	})
}
