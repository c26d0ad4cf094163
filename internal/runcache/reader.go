package runcache

import "fmt"

// readWindow is a Reader's read-ahead window. Records written together
// sit together in a segment, so one pread of the window serves the
// following records of a grid replay from memory.
const readWindow = 64 << 10

// Reader is a caller-owned read path onto a Store for replaying many
// keys: it keeps a fixed read-ahead window of one segment, so a hit is
// an index probe and a slice of memory, and a window miss refills with
// one pread starting at the missed value. A Reader is not safe for
// concurrent use; give each goroutine its own.
//
// The window never holds bytes past the segment length that was
// published when it was read. Put publishes a record's bytes before it
// indexes the key, so every indexed record lies below the published
// length the Reader loads after finding it, and a record still being
// written is never in a window.
type Reader struct {
	s   *Store
	buf []byte // window bytes; allocated on the first fill
	seg int32  // segment the window holds
	off int64  // segment offset of buf[0]
}

// NewReader returns a Reader onto s. A nil store yields a Reader that
// misses every key.
func (s *Store) NewReader() *Reader { return &Reader{s: s} }

// Get returns the stored value for k, or ok=false when absent, counting
// in DiskStats like Store.Get. The returned slice aliases the window: it
// is valid until the next call on r, and the caller must copy what it
// keeps. A value larger than the window is read exactly into a fresh
// slice and leaves the window as it was.
func (r *Reader) Get(k Key) ([]byte, bool, error) {
	s := r.s
	if s == nil {
		return nil, false, nil
	}
	s.nGet.Add(1)
	loc, ok := s.lookup(k)
	if !ok {
		return nil, false, nil
	}
	if loc.size > readWindow {
		v := make([]byte, loc.size)
		if err := s.readAt(v, loc); err != nil {
			return nil, false, err
		}
		s.nGetHit.Add(1)
		return v, true, nil
	}
	lo := loc.off - r.off
	hi := lo + int64(loc.size)
	if loc.seg != r.seg || lo < 0 || hi > int64(len(r.buf)) {
		if err := r.fill(loc); err != nil {
			return nil, false, err
		}
		lo, hi = 0, int64(loc.size)
	}
	s.nGetHit.Add(1)
	return r.buf[lo:hi:hi], true, nil
}

// fill reads the window from loc's value onward, up to readWindow bytes
// and never past the segment's published length.
func (r *Reader) fill(loc diskLoc) error {
	if r.buf == nil {
		r.buf = make([]byte, readWindow)
	}
	seg := (*r.s.segs.Load())[loc.seg]
	n := min(int64(readWindow), seg.end.Load()-loc.off)
	if n < int64(loc.size) {
		return fmt.Errorf("runcache: record at %d+%d lies past its segment's published end", loc.off, loc.size)
	}
	r.buf = r.buf[:n]
	if _, err := seg.f.ReadAt(r.buf, loc.off); err != nil {
		r.buf = r.buf[:0]
		return fmt.Errorf("runcache: reading value: %w", err)
	}
	r.seg, r.off = loc.seg, loc.off
	return nil
}
