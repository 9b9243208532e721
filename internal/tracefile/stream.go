package tracefile

// Streaming access to trace containers: the pieces that let a trace be
// scanned, replayed and re-encoded without ever materialising it.
//
//   - FileStream is trace.Stream over an io.Reader: it decodes any
//     container version incrementally into pooled record batches, so
//     replaying an N-record file costs O(batch) memory instead of the
//     O(N) a loaded Trace spends.  Over a version-5 file opened by path
//     it also seeks by block, so deep skips cost what a Cursor's do.
//   - Scan is the incremental-digesting pass: one read over a container
//     computes the content digest, record count, canonical size and
//     location frequencies in O(batch) memory, verifying the embedded
//     header as it goes — the validation half of a chunked upload.
//   - SpoolToDir couples the two: it tees an incoming container to a
//     temp file while Scan validates and digests it, then installs a
//     digest-named version-5 file (renaming a v5 upload, streaming a
//     transcode of a v1-v4 one) — the write path of a disk store tier.

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/tracereuse/tlr/internal/trace"
)

// canonicalHasher digests a record stream's canonical encoding
// incrementally: one scratch buffer per record instead of the whole
// canonical stream a Recorder accumulates.
type canonicalHasher struct {
	h   hash.Hash
	buf []byte
	n   int64
}

func newCanonicalHasher() *canonicalHasher {
	return &canonicalHasher{h: sha256.New()}
}

func (c *canonicalHasher) write(e *trace.Exec) {
	c.buf = appendRecord(c.buf[:0], e)
	c.h.Write(c.buf)
	c.n += int64(len(c.buf))
}

func (c *canonicalHasher) sum() (s [32]byte) {
	copy(s[:], c.h.Sum(nil))
	return
}

// FileStream decodes a trace container incrementally, delivering pooled
// record batches (trace.Stream).  Unlike Trace.Cursor it never holds
// more than one batch of decoded records plus the decoder's fixed
// state, so replay memory is independent of the trace's length; the
// stream is one-shot — open a new one per replay.  Skip on a version-5
// file opened by path (OpenFileStream) seeks to the target block's
// segment and decodes at most BlockLen-1 records, the same contract as
// Cursor.Skip.  Older versions, and streams over a plain io.Reader
// (NewFileStream), cannot seek: Skip decodes past the skipped records.
type FileStream struct {
	r     *Reader
	arena *blockArena
	eof   bool

	// A stream opened by path owns its file and prefetches it lazily,
	// from wherever the first read or seek lands.
	f       *os.File
	size    int64      // the file's size in bytes
	payload int64      // file offset of the first byte after the header
	ra      *readAhead // the running prefetcher; nil until reading starts
}

// NewFileStream validates the container header and returns a streaming
// batch decoder over r.
func NewFileStream(r io.Reader) (*FileStream, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	return newFileStream(rd), nil
}

func newFileStream(rd *Reader) *FileStream {
	arena := arenaPool.Get().(*blockArena)
	// The pool is shared across traces and tenants: zero the record
	// slots on adoption so operand slots beyond a record's NIn/NOut can
	// only hold residue from this stream (see Cursor.load).
	clear(arena.recs[:])
	return &FileStream{r: rd, arena: arena}
}

// OpenFileStream opens a trace file as a FileStream; Close closes the
// file.  The header is read straight from the file; the payload is read
// through a background prefetcher (see readAhead), started at the first
// read or seek, so block decode overlaps file I/O.  Streams over other
// readers (NewFileStream) are left untouched, since a caller's reader
// may not tolerate being read past the container's end.  A version-5
// file whose size disagrees with its segment table is rejected here.
func OpenFileStream(path string) (*FileStream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := openFileStream(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func openFileStream(f *os.File) (*FileStream, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	rd, err := NewReader(f)
	if err != nil {
		return nil, err
	}
	pos, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		rd.release()
		return nil, err
	}
	// The Reader buffered past the header; seek re-reads from there.
	payload := pos - int64(rd.r.Buffered())
	if rd.v5 != nil {
		if want := payload + rd.v5.offs[len(rd.v5.offs)-1]; want != fi.Size() {
			rd.release()
			return nil, fmt.Errorf("tracefile: file holds %d bytes, header and segment table declare %d", fi.Size(), want)
		}
	}
	s := newFileStream(rd)
	s.f, s.size, s.payload = f, fi.Size(), payload
	return s, nil
}

// seek (re)starts the prefetcher at block blk's first byte — its
// segment in a version-5 file, the payload start (blk 0) otherwise —
// and points the decoder there.  blk may be the block count: the end
// of the stream.
func (s *FileStream) seek(blk int) {
	off := s.payload
	if s.r.v5 != nil {
		off += s.r.v5.offs[blk]
	}
	if s.ra != nil {
		s.ra.Close()
	}
	s.ra = newReadAhead(io.NewSectionReader(s.f, off, s.size-off))
	s.r.r.Reset(s.ra)
	if s.r.v5 != nil {
		s.r.seekV5(blk)
	}
}

// begin starts a path-opened stream's prefetcher at the first block if
// nothing has started it yet.
func (s *FileStream) begin() {
	if s.f != nil && s.ra == nil {
		s.seek(0)
	}
}

// NextBatch decodes and returns the next run of up to BatchLen records;
// the slice is valid until the next FileStream call.  It returns io.EOF
// cleanly at the end of the container.  Version-4/5 containers decode
// straight into the arena through the plane decoder (readBatch), so the
// streamed replay path runs the same tight loops as an in-memory
// Cursor; older versions fall back to the per-record decode.
func (s *FileStream) NextBatch() ([]trace.Exec, error) {
	if s.eof {
		return nil, io.EOF
	}
	if s.arena == nil {
		return nil, fmt.Errorf("tracefile: FileStream used after Close")
	}
	s.begin()
	n, err := s.r.readBatch(s.arena.recs[:])
	switch err {
	case nil:
		return s.arena.recs[:n], nil
	case io.EOF:
		s.eof = true
		if n > 0 {
			return s.arena.recs[:n], nil
		}
		return nil, io.EOF
	default:
		return nil, err
	}
}

// Skip advances past up to n records.  On a version-5 file opened by
// path, a target beyond the current block is reached by seeking to its
// block's segment; the records left before the target (at most
// BlockLen-1) are decoded, a batch at a time, and discarded.  Without a
// seek every skipped record is decoded that way: time O(n), memory
// O(batch).
func (s *FileStream) Skip(n uint64) (uint64, error) {
	if s.arena == nil {
		return 0, fmt.Errorf("tracefile: FileStream used after Close")
	}
	var done uint64
	if s.f != nil && s.r.v5 != nil && !s.eof {
		pos := s.r.n
		target := pos + min(n, s.r.declaredRecords-pos)
		if blk := int(target / BlockLen); s.ra == nil || blk > s.r.v4.blk {
			s.seek(blk)
			done = s.r.n - pos
		}
	}
	s.begin()
	for done < n && !s.eof {
		want := n - done
		if want > BatchLen {
			want = BatchLen
		}
		got, err := s.r.readBatch(s.arena.recs[:want])
		done += uint64(got)
		switch err {
		case nil:
		case io.EOF:
			s.eof = true
		default:
			return done, err
		}
	}
	return done, nil
}

// Close releases the decode arena and buffers and closes the underlying
// file (when the stream owns one).  The stream and any batch it
// returned must not be used afterwards.
func (s *FileStream) Close() {
	if s.arena == nil {
		return
	}
	arenaPool.Put(s.arena)
	s.arena = nil
	if s.ra != nil {
		s.ra.Close()
		s.ra = nil
	}
	s.r.release()
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
}

// OpenFile loads a complete trace file into memory (see Load).
func OpenFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// ProbeFile reads a version-2-or-later container's header without
// decoding any records: the declared digest, record count and (v3 and
// later) canonical size.  It is how a directory store rehydrates its index
// from digest-named files it wrote earlier — cheap enough to run per
// file at startup.  The header is declared, not verified; Probe is for
// files installed by a verifying writer (Save, SpoolToDir), and a
// corrupt payload still fails at replay time.
func ProbeFile(path string) (ScanInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return ScanInfo{}, err
	}
	defer f.Close()
	rd, err := NewReader(f)
	if err != nil {
		return ScanInfo{}, fmt.Errorf("%s: %w", path, err)
	}
	defer rd.release()
	if rd.version < Version2 {
		return ScanInfo{}, fmt.Errorf("%s: version-%d containers carry no header to probe", path, rd.version)
	}
	return ScanInfo{
		Digest:         fmt.Sprintf("%s%x", DigestPrefix, rd.declaredDigest),
		Records:        rd.declaredRecords,
		CanonicalBytes: int64(rd.declaredCanonical),
		Version:        rd.version,
	}, nil
}

// ScanFile is Scan over a trace file on disk.
func ScanFile(path string) (ScanInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return ScanInfo{}, err
	}
	defer f.Close()
	info, err := Scan(f)
	if err != nil {
		return ScanInfo{}, fmt.Errorf("%s: %w", path, err)
	}
	return info, nil
}

// ScanInfo is what one incremental pass over a container learns.
type ScanInfo struct {
	// Digest is the content digest of the canonical record encoding,
	// computed incrementally and (for version-2 and later containers)
	// verified against the header's declared digest.
	Digest string
	// Records is the number of records in the stream.
	Records uint64
	// CanonicalBytes is the size of the stream's canonical encoding.
	CanonicalBytes int64
	// Version is the container version scanned.
	Version uint32

	sum  [32]byte
	dict []trace.Loc
}

// scanFreqCap bounds the location-frequency map a Scan accumulates: a
// hostile stream naming millions of distinct memory locations must not
// turn the O(batch) pass into an O(distinct-locations) allocation.
// Locations beyond the cap are simply not dictionary candidates (the
// encoding escapes them; correctness is unaffected).
const scanFreqCap = 1 << 20

// Scan reads a complete container from r in one pass, computing the
// content digest, record count, canonical size and the operand-location
// dictionary the stream would be given, in O(batch) memory.  Every
// record is validated, and a version-2+ header whose declared digest,
// record count or canonical size disagrees with the stream is rejected
// — the same guarantees Load gives, without materialising the trace.
func Scan(r io.Reader) (ScanInfo, error) {
	rd, err := NewReader(r)
	if err != nil {
		return ScanInfo{}, err
	}
	defer rd.release()
	h := newCanonicalHasher()
	freq := make(map[trace.Loc]uint64)
	count := func(l trace.Loc) {
		if _, ok := freq[l]; ok || len(freq) < scanFreqCap {
			freq[l]++
		}
	}
	var e trace.Exec
	for {
		if err := rd.Read(&e); err == io.EOF {
			break
		} else if err != nil {
			return ScanInfo{}, err
		}
		h.write(&e)
		for _, ref := range e.Inputs() {
			count(ref.Loc)
		}
		for _, ref := range e.Outputs() {
			count(ref.Loc)
		}
	}
	info := ScanInfo{
		Records:        rd.Records(),
		CanonicalBytes: h.n,
		Version:        rd.Version(),
		dict:           buildDict(freq),
	}
	info.sum = h.sum()
	info.Digest = fmt.Sprintf("%s%x", DigestPrefix, info.sum)
	if err := rd.checkHeader(info.Records, info.sum, uint64(info.CanonicalBytes)); err != nil {
		return ScanInfo{}, err
	}
	return info, nil
}

// SpoolInfo describes a container installed into a directory store.
type SpoolInfo struct {
	Digest         string
	Records        uint64
	CanonicalBytes int64
	// Path is the digest-named version-5 file holding the stream.
	Path string
	// FileBytes is the installed file's size on disk.
	FileBytes int64
}

// DigestFileName maps a content digest to the file name a directory
// store keeps it under (the ':' is not portable in file names).
func DigestFileName(digest string) string {
	return strings.ReplaceAll(digest, ":", "-") + ".trc"
}

// ErrStoreWrite tags a spool failure on the store's side — temp-file
// creation, disk-full writes, the final rename — as opposed to invalid
// upload bytes.  A server maps errors carrying it to a 5xx and
// everything else SpoolToDir returns to a 4xx.
var ErrStoreWrite = errors.New("tracefile: trace store write failed")

func storeWriteErr(err error) error {
	return fmt.Errorf("%w: %w", ErrStoreWrite, err)
}

// teeCapture is io.TeeReader with the write-side error remembered, so
// a disk failure during the spool is distinguishable from a decode
// failure of the bytes being scanned.
type teeCapture struct {
	r    io.Reader
	w    io.Writer
	werr error
}

func (t *teeCapture) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if n > 0 {
		if _, werr := t.w.Write(p[:n]); werr != nil {
			t.werr = werr
			return n, werr
		}
	}
	return n, err
}

// SpoolToDir streams a complete trace container from r into dir as a
// digest-named version-5 file, validating and digesting it
// incrementally: at no point is the trace (or the request body carrying
// it) held in memory, so arbitrarily long uploads cost O(batch).  The
// incoming bytes are teed to a temporary file in dir while Scan
// validates them; a version-5 upload is then renamed into place, and a
// version-1 to -4 upload is transcoded to version 5 by a second
// O(batch) pass.  Re-uploading a digest the directory already holds is a no-op
// that returns the existing file's info.  Store-side failures carry
// ErrStoreWrite; any other error means the uploaded bytes were invalid.
func SpoolToDir(r io.Reader, dir string) (SpoolInfo, error) {
	tmp, err := os.CreateTemp(dir, ".upload-*.tmp")
	if err != nil {
		return SpoolInfo{}, storeWriteErr(err)
	}
	defer func() {
		tmp.Close()
		os.Remove(tmp.Name())
	}()
	bw := bufio.NewWriterSize(tmp, 1<<16)
	tee := &teeCapture{r: r, w: bw}
	scan, err := Scan(tee)
	if err != nil {
		if tee.werr != nil {
			return SpoolInfo{}, storeWriteErr(tee.werr)
		}
		return SpoolInfo{}, err
	}
	if err := bw.Flush(); err != nil {
		return SpoolInfo{}, storeWriteErr(err)
	}
	info := SpoolInfo{
		Digest:         scan.Digest,
		Records:        scan.Records,
		CanonicalBytes: scan.CanonicalBytes,
		Path:           filepath.Join(dir, DigestFileName(scan.Digest)),
	}
	if fi, err := os.Stat(info.Path); err == nil {
		// Already installed (same digest, same bytes): keep the existing
		// file.  Content addressing makes this safe — equal digests mean
		// equal streams.
		info.FileBytes = fi.Size()
		return info, nil
	}
	if scan.Version == Version5 {
		// The upload is already a valid, fully-verified v5 container:
		// install the teed bytes as-is.
		if err := tmp.Close(); err != nil {
			return SpoolInfo{}, storeWriteErr(err)
		}
		if err := os.Rename(tmp.Name(), info.Path); err != nil {
			return SpoolInfo{}, storeWriteErr(err)
		}
	} else {
		if _, err := tmp.Seek(0, io.SeekStart); err != nil {
			return SpoolInfo{}, storeWriteErr(err)
		}
		// The temp file's bytes were fully validated by the scan, so any
		// transcode failure is the store's fault, not the upload's.
		if err := transcodeV5File(info.Path, tmp, scan); err != nil {
			return SpoolInfo{}, storeWriteErr(err)
		}
	}
	fi, err := os.Stat(info.Path)
	if err != nil {
		return SpoolInfo{}, storeWriteErr(err)
	}
	info.FileBytes = fi.Size()
	return info, nil
}

// transcodeV5File writes the records of the container in src as a
// version-5 file at dst, in O(batch) memory.  The segment table
// precedes the segments, so they are spooled to a sibling temp file
// first and the header written once every length is known.  The v4
// encoder frames each sealed block into its enc buffer; compressing
// that block as the next segment and draining the buffer after every
// record keeps the transcode's memory at one open block plus the
// compressor, whatever the upload's length.  The scan's record count
// says which block is the last, whose segment ends the DEFLATE stream.
func transcodeV5File(dst string, src io.Reader, scan ScanInfo) error {
	rd, err := NewReader(src)
	if err != nil {
		return err
	}
	defer rd.release()
	spool, err := os.CreateTemp(filepath.Dir(dst), ".payload-*.tmp")
	if err != nil {
		return err
	}
	defer func() {
		spool.Close()
		os.Remove(spool.Name())
	}()
	sw := bufio.NewWriterSize(spool, 1<<16)
	seg := newV5Segmenter(sw)
	defer seg.release()
	nblk := int((scan.Records + BlockLen - 1) / BlockLen)
	enc := newV4Encoder(scan.dict, 1<<16)
	drain := func() error {
		if len(enc.enc) == 0 {
			return nil
		}
		err := seg.add(enc.enc, len(seg.lens) == nblk-1)
		// The encoder's block-offset bookkeeping is meaningless across
		// drains and unused here; reset both so the buffers stay small.
		enc.enc, enc.blocks = enc.enc[:0], enc.blocks[:0]
		return err
	}
	var e trace.Exec
	for {
		if err := rd.Read(&e); err == io.EOF {
			break
		} else if err != nil {
			return err
		}
		enc.write(&e)
		if err := drain(); err != nil {
			return err
		}
	}
	enc.finish()
	if err := drain(); err != nil {
		return err
	}
	if len(seg.lens) != nblk {
		return fmt.Errorf("tracefile: transcode sealed %d blocks for %d records", len(seg.lens), scan.Records)
	}
	if err := sw.Flush(); err != nil {
		return err
	}
	if _, err := spool.Seek(0, io.SeekStart); err != nil {
		return err
	}
	return writeFileRenamed(dst, func(w io.Writer) error {
		bw := bufio.NewWriterSize(w, 1<<16)
		if err := writePrelude(bw, scan.Records, scan.sum, uint64(scan.CanonicalBytes), seg.raw, scan.dict); err != nil {
			return err
		}
		if err := writeV5Table(bw, seg.lens); err != nil {
			return err
		}
		if _, err := io.Copy(bw, spool); err != nil {
			return err
		}
		return bw.Flush()
	})
}

// writeFileRenamed writes a file through a temp-and-rename in the
// target's directory, so a failure mid-write never leaves a truncated
// file at the final path.
func writeFileRenamed(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	if err := write(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
