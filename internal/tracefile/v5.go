package tracefile

// The version-5 container: version 4's blocks, made seekable at rest.
//
// Version 4 compresses its plane-split blocks as one DEFLATE stream, so
// a file can only be read from the start: to reach record k a reader
// must inflate every byte before it, even though the blocks themselves
// reset all delta state and need nothing from their predecessors.
// Version 5 keeps v4's header, dictionary, block encoding and digest,
// and changes only how the blocks are compressed (the BGZF idea:
// independently compressed blocks plus their offsets):
//
//   - Each block is compressed from an empty window (flate.Writer.Reset)
//     into its own *segment*, which ends byte-aligned with a sync flush;
//     the last block's segment ends the stream.  The concatenated
//     segments therefore still form one valid RFC 1951 stream, but any
//     segment can be inflated on its own.
//   - Between the dictionary and the first segment sits the segment
//     table: one uvarint per block, its segment's compressed length.
//
// A reader inflates one segment at a time: it resets its decompressor
// (flate.Resetter) at the segment's first byte and limits it to the
// segment's bytes.  The segment must inflate to exactly its block and be
// fully consumed, or the read fails naming the block.  A seek is the
// same decode started at a later segment (FileStream.Skip on a file
// opened by path), so it cannot yield records a sequential read would
// not: deep skips cost one table lookup plus at most BlockLen-1 decoded
// records, as they do for an in-memory Cursor.
//
// docs/FORMAT.md is the normative spec.

import (
	"bufio"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// maxV5Segment bounds one segment's declared compressed length.  A v4
// block is at most 185 bytes per record after its 7-uvarint header (the
// plane caps of checkV4PlaneLens), about 740 KiB for a full block, and
// DEFLATE never expands data by more than its stored-block framing, so
// no genuine segment comes near 1 MiB.
const maxV5Segment = 1 << 20

// readV5Table reads the segment table that follows a version-5
// dictionary: one compressed length per block of the declared record
// count.  Every entry and the running total are capped before they are
// used, and the table grows only as entries are actually read, so a
// hostile header cannot allocate more than its bytes justify.
func (r *Reader) readV5Table() error {
	nblk := (r.declaredRecords + BlockLen - 1) / BlockLen
	offs := make([]int64, 1, 1+min(nblk, 1<<12))
	for i := uint64(0); i < nblk; i++ {
		l, err := binary.ReadUvarint(r.r)
		if err != nil {
			return fmt.Errorf("tracefile: reading segment table entry %d: %w", i, eofToUnexpected(err))
		}
		if l == 0 || l > maxV5Segment {
			return fmt.Errorf("tracefile: segment table entry %d declares %d bytes (want 1..%d)", i, l, maxV5Segment)
		}
		end := offs[i] + int64(l)
		if end > maxV3Payload {
			return fmt.Errorf("tracefile: segment table declares over %d compressed bytes", int64(maxV3Payload))
		}
		offs = append(offs, end)
	}
	r.v5 = &v5Segs{offs: offs}
	r.v5.seg.br = r.r
	return nil
}

// v5Segs is a version-5 Reader's segment state.
type v5Segs struct {
	// offs[i] is segment i's offset from the first segment byte, and
	// offs[len(offs)-1] is the compressed payload's total size.
	offs []int64
	seg  segReader
	// opened counts the compressed bytes of the segments opened since
	// decoding started (the expansion bound's denominator).
	opened int64
	// start is the block decoding started at: nonzero after a seek, when
	// the inflated offsets before it are unknown.
	start int
}

// deflateEnd is an empty final stored block: the bytes a DEFLATE
// stream that is byte-aligned at a block boundary needs to end cleanly.
var deflateEnd = [5]byte{0x01, 0x00, 0x00, 0xff, 0xff}

// segReader feeds the decompressor one segment: the next left bytes of
// the container stream, then tail, then io.EOF.  It forwards ReadByte so
// flate reads exactly the segment's bytes and no further.
type segReader struct {
	br   *bufio.Reader
	left int64
	// tail is deflateEnd behind a non-final segment: a segment that ends
	// byte-aligned at a block boundary, as its sync flush leaves it,
	// then ends the stream exactly, and a segment that stops anywhere
	// else misparses it.
	tail []byte
}

func (s *segReader) Read(p []byte) (int, error) {
	if s.left <= 0 {
		if len(s.tail) == 0 {
			return 0, io.EOF
		}
		n := copy(p, s.tail)
		s.tail = s.tail[n:]
		return n, nil
	}
	if int64(len(p)) > s.left {
		p = p[:s.left]
	}
	n, err := s.br.Read(p)
	s.left -= int64(n)
	return n, eofToUnexpected(err)
}

func (s *segReader) ReadByte() (byte, error) {
	if s.left <= 0 {
		if len(s.tail) == 0 {
			return 0, io.EOF
		}
		b := s.tail[0]
		s.tail = s.tail[1:]
		return b, nil
	}
	b, err := s.br.ReadByte()
	if err != nil {
		return 0, eofToUnexpected(err)
	}
	s.left--
	return b, nil
}

// openV5Segment points the inflated record source at block blk's
// segment, with a freshly reset decompressor.
func (r *Reader) openV5Segment(blk int) error {
	v := r.v5
	n := v.offs[blk+1] - v.offs[blk]
	v.seg.left = n
	v.seg.tail = nil
	if blk != len(v.offs)-2 {
		v.seg.tail = deflateEnd[:]
	}
	v.opened += n
	z, err := r.bufs.inflate(&v.seg)
	if err != nil {
		return err
	}
	r.src.Reset(z)
	return nil
}

// closeV5Segment checks, once block blk's planes have been read, that
// its segment inflated to exactly the block and was consumed to its last
// byte: the final segment must end the DEFLATE stream, and a non-final
// one must end byte-aligned at a block boundary (its sync flush), which
// the deflateEnd tail behind it then closes.
func (r *Reader) closeV5Segment(blk int) error {
	seg := &r.v5.seg
	last := blk == len(r.v5.offs)-2
	_, err := r.src.ReadByte()
	switch {
	case err == nil:
		return errors.New("segment inflates past the end of its block")
	case err != io.EOF && err != io.ErrUnexpectedEOF:
		return fmt.Errorf("inflating segment: %w", err)
	case seg.left != 0:
		return fmt.Errorf("segment holds %d compressed bytes past its block", seg.left)
	case last && err != io.EOF:
		return errors.New("final segment does not end the DEFLATE stream")
	case !last && len(seg.tail) == len(deflateEnd):
		return errors.New("segment ends the DEFLATE stream before the final block")
	case !last && (err != io.EOF || len(seg.tail) != 0):
		return errors.New("segment does not end on a DEFLATE block boundary")
	}
	return nil
}

// seekV5 repositions a version-5 Reader at the start of block blk (blk
// may equal the block count: the end of the stream).  The caller has
// already pointed r.r at that segment's first byte.
func (r *Reader) seekV5(blk int) {
	s := r.v4
	s.blk = blk - 1
	s.blkRecs, s.blkDone = 0, 0
	s.bn, s.bpos = 0, 0
	r.n = min(uint64(blk)*BlockLen, r.declaredRecords)
	r.off = 0
	r.tailChecked = false
	r.v5.opened = 0
	r.v5.start = blk
}

// v5Segmenter compresses v4 blocks into version-5 segments, recording
// each segment's compressed length for the table.
type v5Segmenter struct {
	zw   *flate.Writer
	out  countWriter
	lens []uint64
	raw  uint64 // uncompressed bytes in
}

// segmenterPool recycles segmenters, and with them their DEFLATE
// compressor (~1 MiB of match-finder tables, which every trace write
// needs).  The compressor only ever writes to the segmenter's own
// countWriter, so a pooled segmenter holds no reference to a caller's
// writer once release has cleared it.
var segmenterPool = sync.Pool{New: func() any {
	s := new(v5Segmenter)
	s.zw, _ = flate.NewWriter(&s.out, flate.DefaultCompression)
	return s
}}

func newV5Segmenter(w io.Writer) *v5Segmenter {
	s := segmenterPool.Get().(*v5Segmenter)
	s.out = countWriter{w: w}
	s.lens, s.raw = s.lens[:0], 0
	return s
}

// add compresses one block as the next segment.  last marks the final
// block, whose segment ends the DEFLATE stream.
func (s *v5Segmenter) add(block []byte, last bool) error {
	start := s.out.n
	s.zw.Reset(&s.out)
	if _, err := s.zw.Write(block); err != nil {
		return err
	}
	var err error
	if last {
		err = s.zw.Close()
	} else {
		err = s.zw.Flush()
	}
	if err != nil {
		return err
	}
	s.lens = append(s.lens, uint64(s.out.n-start))
	s.raw += uint64(len(block))
	return nil
}

// release returns the segmenter to the pool; it must not be used
// afterwards.
func (s *v5Segmenter) release() {
	s.out.w = nil
	segmenterPool.Put(s)
}

// writeV5Table emits the segment table.
func writeV5Table(w io.Writer, lens []uint64) error {
	buf := make([]byte, 0, 3*len(lens))
	for _, l := range lens {
		buf = binary.AppendUvarint(buf, l)
	}
	_, err := w.Write(buf)
	return err
}
