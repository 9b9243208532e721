package tracefile

import (
	"io"
	"sync"
)

// Disk-tier read-ahead for streamed replay.  A FileStream's decode
// loop alternates CPU work (inflate + plane decode) with blocking
// file reads; on the disk tier that serialises the two.  readAhead
// moves the file reads onto one background goroutine that stays a few
// fixed-size chunks in front of the decoder, so the next block's bytes
// are already buffered when the current one finishes decoding — replay
// overlaps I/O with decode instead of ping-ponging.
//
// The chunks come from a shared pool and the goroutine can hold at
// most readAheadDepth of them, so per-stream memory stays fixed and
// the O(batch) replay guarantee (and its alloc gates) holds: the
// per-open cost is one goroutine and two channels, amortised over the
// whole file.

const (
	// readAheadChunk is the unit of prefetch.  32 KiB spans a few
	// compressed blocks (a version-5 segment is ~10 KiB), so a read
	// after a seek prefetches about what it decodes instead of
	// megabytes past its window, and three in flight cost ~100 KiB per
	// open stream.
	readAheadChunk = 32 << 10
	// readAheadDepth is how many chunks the prefetcher may run ahead
	// of the decoder.
	readAheadDepth = 3
)

var readAheadPool = sync.Pool{
	New: func() any {
		b := make([]byte, readAheadChunk)
		return &b
	},
}

// raChunk is one filled prefetch buffer.  err (if any) applies after
// the n valid bytes.
type raChunk struct {
	buf *[]byte
	n   int
	err error
}

// readAhead is an io.ReadCloser that prefetches its source through a
// single background goroutine.  It is not safe for concurrent Read,
// matching the FileStream it feeds.
type readAhead struct {
	ch   chan raChunk
	stop chan struct{}
	wg   sync.WaitGroup

	cur  *[]byte // chunk being consumed, nil between chunks
	data []byte  // unread remainder of cur
	err  error   // terminal error, delivered after data drains
}

// newReadAhead starts prefetching src immediately (a FileStream starts
// one only when it begins reading, at the byte it will read first).
// Close stops the goroutine; src stays open.
func newReadAhead(src io.Reader) *readAhead {
	ra := &readAhead{
		ch:   make(chan raChunk, readAheadDepth),
		stop: make(chan struct{}),
	}
	ra.wg.Add(1)
	go func() {
		defer ra.wg.Done()
		defer close(ra.ch)
		for {
			buf := readAheadPool.Get().(*[]byte)
			n, err := io.ReadFull(src, *buf)
			if err == io.ErrUnexpectedEOF {
				err = io.EOF
			}
			select {
			case ra.ch <- raChunk{buf: buf, n: n, err: err}:
			case <-ra.stop:
				readAheadPool.Put(buf)
				return
			}
			if err != nil {
				return
			}
		}
	}()
	return ra
}

func (r *readAhead) Read(p []byte) (int, error) {
	for len(r.data) == 0 {
		if r.cur != nil {
			readAheadPool.Put(r.cur)
			r.cur = nil
		}
		if r.err != nil {
			return 0, r.err
		}
		c, ok := <-r.ch
		if !ok {
			// Only reachable after Close raced a concurrent Read,
			// which the contract forbids; fail cleanly anyway.
			return 0, io.ErrClosedPipe
		}
		r.cur, r.data, r.err = c.buf, (*c.buf)[:c.n], c.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// Close stops the prefetcher and returns every outstanding chunk to the
// pool.
func (r *readAhead) Close() error {
	close(r.stop)
	// The goroutine may be blocked on a send; draining until the
	// channel closes guarantees it has exited and no chunk is lost.
	for c := range r.ch {
		readAheadPool.Put(c.buf)
	}
	r.wg.Wait()
	if r.cur != nil {
		readAheadPool.Put(r.cur)
		r.cur = nil
	}
	r.data, r.err = nil, io.ErrClosedPipe
	return nil
}
