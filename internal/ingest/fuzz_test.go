package ingest

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"strings"
	"testing"

	"github.com/tracereuse/tlr/internal/tracefile"
)

// FuzzIngestCSV throws arbitrary bytes at the CSV ingest path — malformed
// rows, huge fields, binary garbage, valid and truncated gzip — in both
// strict and lenient mode.  Ingest must never panic, and the invariants
// between stats and the produced trace must hold on every input.
func FuzzIngestCSV(f *testing.F) {
	f.Add([]byte("0x1000,r\n0x2000,w\n"))
	f.Add([]byte("addr,op\n0x10,read\n0x20,write\n"))
	f.Add([]byte("not-an-address,r\n0x10,maybe\n,,,,\n"))
	f.Add([]byte("0x10," + strings.Repeat("x", 5000) + "\n"))
	f.Add([]byte(strings.Repeat("0", 5000) + ",r\n"))
	f.Add([]byte("\x1f\x8b\x00\x00garbage-after-magic"))
	f.Add([]byte{0x1f, 0x8b})
	var gz bytes.Buffer
	w := gzip.NewWriter(&gz)
	w.Write([]byte("0x1000,r\n0x2000,w\n0x3000,r\n"))
	w.Close()
	f.Add(gz.Bytes())
	f.Add(gz.Bytes()[:gz.Len()/2]) // truncated gzip member

	f.Fuzz(func(t *testing.T, data []byte) {
		checkIngest(t, data, func() Mapper {
			m, err := NewCSV(CSVLayout{AddrCol: 0, OpCol: 1, PCCol: -1})
			if err != nil {
				t.Fatal(err)
			}
			return m
		})
	})
}

// FuzzIngestPCText throws arbitrary bytes at the "PC op" text ingest
// path — the format's own example, repeated arrows, out-of-range
// registers, more operands than a record holds, 64-bit PCs and binary
// garbage — in both strict and lenient mode, under the same invariants
// as FuzzIngestCSV.
func FuzzIngestPCText(f *testing.F) {
	f.Add([]byte("0x400100 ld 0x2000 -> r1\n0x400101 add r1 r2 -> r3\n0x400102 st r3 -> 0x2000\n"))
	f.Add([]byte("# comment\n\n0x100 add r1 -> r2 -> r3\n"))
	f.Add([]byte("0x100 add r32 -> r1\n0x101 fmul f31 f0 -> f32\n"))
	var wide strings.Builder
	wide.WriteString("0x100 add")
	for i := 1; i <= 17; i++ {
		fmt.Fprintf(&wide, " r%d", i%32)
	}
	wide.WriteString(" -> r0\n")
	f.Add([]byte(wide.String()))
	f.Add([]byte("0xffffffffffffffff nop\n18446744073709551615 add r1 -> 0xffffffffffffffff\n"))
	f.Add([]byte("\x00\xff\xfe\x80 ld \x01\n\x1f\x8b\x08"))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkIngest(t, data, NewPCText)
	})
}

// checkIngest ingests data through a fresh mapper in strict and lenient
// mode.  Ingest must never panic, the stats must agree with the
// produced trace, and an accepted trace must survive a write and load
// with its digest and record count intact.
func checkIngest(t *testing.T, data []byte, newMapper func() Mapper) {
	for _, lenient := range []bool{false, true} {
		m := newMapper()
		opt := Options{Lenient: lenient, MaxLineBytes: 4 << 10, MaxRecords: 1 << 16}
		tr, st, err := Ingest(bytes.NewReader(data), m, opt)
		if err != nil {
			if lenient {
				// Lenient mode only surfaces transport errors; they
				// must carry the format context.
				if label := "ingest(" + m.Name() + ")"; !strings.Contains(err.Error(), label) {
					t.Fatalf("unlabelled error: %v", err)
				}
			}
			continue
		}
		if tr == nil {
			t.Fatal("nil trace without error")
		}
		if tr.Records() != st.Records {
			t.Fatalf("trace has %d records, stats say %d", tr.Records(), st.Records)
		}
		if st.Records+st.Rejected > st.Lines {
			t.Fatalf("inconsistent stats: %+v", st)
		}
		if !lenient && st.Rejected != 0 {
			t.Fatalf("strict mode rejected silently: %+v", st)
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatalf("writing an accepted trace: %v", err)
		}
		back, err := tracefile.Load(&buf)
		if err != nil {
			t.Fatalf("loading an accepted trace: %v", err)
		}
		if back.Digest() != tr.Digest() || back.Records() != tr.Records() {
			t.Fatalf("round trip changed identity: %s/%d vs %s/%d",
				tr.Digest(), tr.Records(), back.Digest(), back.Records())
		}
	}
}
