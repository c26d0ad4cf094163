// Package runcache lets campaigns dedupe and resume runs across
// invocations: Store persists finished results under content Keys, and
// Flight is a non-retaining single-flight that keeps concurrent workers
// from simulating one key twice at once.
//
// The store is crash-safe by construction: append-only segment files of
// self-checking records, an in-memory index rebuilt on open, and torn
// tails (a crash mid-append) truncated during recovery. Values are
// opaque bytes; the caller owns the codec (the campaign layer encodes
// scenario.Results), which keeps the store generic and the on-disk
// format independent of Go struct layout.
//
// Record layout (little-endian):
//
//	[4B magic "eMPc"] [32B key] [4B value length] [value] [4B crc32]
//
// where the crc covers key, length, and value. Records are immutable
// once written; a key is stored at most once (first write wins — values
// are pure functions of their content key, so rewrites are identical).
package runcache

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Key is a canonical content digest of one run's inputs — in practice a
// SHA-256 of the scenario configuration, protocol, seed, and options.
type Key [32]byte

// storeShards stripes the index so concurrent Gets from many campaign
// workers don't serialise on one lock (keys are sha256 digests, so the
// low byte is uniform).
const storeShards = 64

// storeShard is one stripe of the key→location index.
type storeShard struct {
	mu    sync.RWMutex
	index map[Key]diskLoc
}

var diskMagic = [4]byte{'e', 'M', 'P', 'c'}

// maxSegmentSize is the rotation threshold for the active segment.
const maxSegmentSize = 64 << 20

// recHeaderSize is magic + key + value length.
const recHeaderSize = 4 + 32 + 4

// scanBufSize is the recovery scan's read buffer: opening a store costs
// one read(2) per 64 KiB of segment, not two per record.
const scanBufSize = 64 << 10

// diskLoc locates one stored value inside a segment.
type diskLoc struct {
	seg  int32  // index into Store.segs
	off  int64  // offset of the value bytes
	size uint32 // value length
}

// segment is one segment file and its published length: every byte
// below end belongs to a complete record. A sealed segment's end never
// changes; Put advances the active one's after the record is written
// and before it is indexed, so a reader that bounds its reads by end
// never sees a record in progress.
type segment struct {
	f   *os.File
	end atomic.Int64
}

// Store is the disk tier. It is safe for concurrent use. Get touches no
// store-wide lock: the index lookup takes one shard's read lock for a
// map probe, the segment table is an atomically-published immutable
// snapshot, and the value itself is a positioned read (pread) on the
// segment file with no lock held at all — so parallel readers scale with
// cores instead of convoying on a single mutex
// (BenchmarkStoreGetParallel). Put serializes on the active segment.
type Store struct {
	dir string

	shards [storeShards]storeShard // key→location, striped by key[0]

	// segs is a copy-on-write snapshot of all segments; the last entry
	// is the active one. Readers Load it without locking; rotateLocked
	// publishes a fresh copy under segMu.
	segs atomic.Pointer[[]*segment]

	segMu  sync.Mutex // guards active, count, rotation, and Put append order
	active *segment   // the last segment, which Put appends to
	count  int        // distinct keys stored (mirrors the shard maps)

	open OpenStats

	nGet, nGetHit, nPut atomic.Uint64
}

// OpenStats is what OpenStore's recovery scan did.
type OpenStats struct {
	Took    time.Duration // wall time of OpenStore
	Records int           // distinct keys indexed
	Bytes   int64         // segment bytes scanned, torn tails included
}

func (s *Store) shard(k Key) *storeShard { return &s.shards[k[0]%storeShards] }

// lookup probes the striped index.
func (s *Store) lookup(k Key) (diskLoc, bool) {
	sh := s.shard(k)
	sh.mu.RLock()
	loc, ok := sh.index[k]
	sh.mu.RUnlock()
	return loc, ok
}

// nSegs reports the current segment count from the published snapshot.
func (s *Store) nSegs() int {
	if p := s.segs.Load(); p != nil {
		return len(*p)
	}
	return 0
}

// appendSeg publishes a new segment-table snapshot with seg appended and
// makes it the active segment. Callers hold segMu (or own the store
// exclusively, as OpenStore does).
func (s *Store) appendSeg(seg *segment) {
	var cur []*segment
	if p := s.segs.Load(); p != nil {
		cur = *p
	}
	next := make([]*segment, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = seg
	s.segs.Store(&next)
	s.active = seg
}

// OpenStore opens (creating if needed) the disk cache rooted at dir and
// rebuilds the in-memory index from the segment files. A torn record at
// the tail of any segment — the footprint of a crash mid-append — is
// truncated away; everything before it is kept.
//
// Recovery reads each segment through one fixed buffer in two passes:
// the first verifies every record and counts keys per index stripe, the
// second inserts the verified records into stripes sized from those
// counts, so the index never rehashes while it fills.
func OpenStore(dir string) (*Store, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runcache: open store: %w", err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "cache-*.seg"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	s := &Store{dir: dir}
	br := bufio.NewReaderSize(nil, scanBufSize)
	var counts [storeShards]int
	for _, name := range names {
		f, err := os.OpenFile(name, os.O_RDWR, 0o644)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("runcache: open segment: %w", err)
		}
		size, end, err := recoverSegment(br, f, &counts)
		if err != nil {
			f.Close()
			s.Close()
			return nil, err
		}
		seg := &segment{f: f}
		seg.end.Store(end)
		s.appendSeg(seg)
		s.open.Bytes += size
	}
	if s.nSegs() == 0 {
		if err := s.rotateLocked(); err != nil {
			s.Close()
			return nil, err
		}
	}
	for i := range s.shards {
		s.shards[i].index = make(map[Key]diskLoc, counts[i])
	}
	for i, seg := range *s.segs.Load() {
		if err := s.indexSegment(br, seg, int32(i)); err != nil {
			s.Close()
			return nil, err
		}
	}
	s.open.Records = s.count
	s.open.Took = time.Since(start)
	return s, nil
}

// recoverSegment scans one segment sequentially through br, verifying
// every record and counting its key's stripe in counts, and truncates
// the file at the first torn or corrupt record. It returns the size the
// file had and the offset it now ends at.
func recoverSegment(br *bufio.Reader, f *os.File, counts *[storeShards]int) (size, end int64, err error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("runcache: stat segment: %w", err)
	}
	size = fi.Size()
	br.Reset(io.NewSectionReader(f, 0, size))
	for {
		hdr, err := br.Peek(recHeaderSize)
		if err != nil {
			break // clean EOF or torn header: truncate here
		}
		if [4]byte(hdr[:4]) != diskMagic {
			break
		}
		// A corrupt length field must neither wrap the arithmetic nor
		// size an allocation: a record longer than a segment or than the
		// bytes left in this file is a torn tail.
		n := int64(binary.LittleEndian.Uint32(hdr[36:40]))
		if n > maxSegmentSize || end+recHeaderSize+n+4 > size {
			break
		}
		stripe := hdr[4] % storeShards // hdr is only valid until br reads on
		if !checkRecord(br, int(n)) {
			break
		}
		counts[stripe]++
		end += recHeaderSize + n + 4
	}
	if err := f.Truncate(end); err != nil {
		return 0, 0, fmt.Errorf("runcache: truncating torn tail: %w", err)
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		return 0, 0, err
	}
	return size, end, nil
}

// checkRecord consumes the record at br's head, whose n-byte value the
// caller has bounds-checked, and reports whether its crc matches. A
// record that fits the buffer is checked with one crc over its
// contiguous key, length and value; a longer one streams through the
// buffer under a running crc.
func checkRecord(br *bufio.Reader, n int) bool {
	body := recHeaderSize - 4 + n // key + length + value
	if rec, err := br.Peek(4 + body + 4); err == nil {
		ok := crc32.ChecksumIEEE(rec[4:4+body]) == binary.LittleEndian.Uint32(rec[4+body:])
		br.Discard(len(rec))
		return ok
	} else if err != bufio.ErrBufferFull {
		return false // torn
	}
	br.Discard(4) // magic
	var crc uint32
	for body > 0 {
		chunk, err := br.Peek(min(body, br.Size()))
		if err != nil {
			return false
		}
		crc = crc32.Update(crc, crc32.IEEETable, chunk)
		body -= len(chunk)
		br.Discard(len(chunk))
	}
	sum, err := br.Peek(4)
	if err != nil {
		return false
	}
	ok := crc == binary.LittleEndian.Uint32(sum)
	br.Discard(4)
	return ok
}

// indexSegment inserts seg's records — all verified by recoverSegment —
// into the index; a key already indexed keeps its first record.
func (s *Store) indexSegment(br *bufio.Reader, seg *segment, segIdx int32) error {
	end := seg.end.Load()
	br.Reset(io.NewSectionReader(seg.f, 0, end))
	for off := int64(0); off < end; {
		hdr, err := br.Peek(recHeaderSize)
		if err != nil {
			return fmt.Errorf("runcache: indexing segment: %w", err)
		}
		k := Key(hdr[4:36])
		n := int64(binary.LittleEndian.Uint32(hdr[36:40]))
		sh := s.shard(k)
		if _, dup := sh.index[k]; !dup {
			sh.index[k] = diskLoc{seg: segIdx, off: off + recHeaderSize, size: uint32(n)}
			s.count++
		}
		rec := recHeaderSize + n + 4
		if _, err := br.Discard(int(rec)); err != nil {
			return fmt.Errorf("runcache: indexing segment: %w", err)
		}
		off += rec
	}
	return nil
}

// rotateLocked starts a fresh active segment. Callers hold segMu (or
// own the store exclusively, as OpenStore does).
func (s *Store) rotateLocked() error {
	name := filepath.Join(s.dir, fmt.Sprintf("cache-%06d.seg", s.nSegs()+1))
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("runcache: new segment: %w", err)
	}
	s.appendSeg(&segment{f: f})
	return nil
}

// Get returns the stored value for k, or ok=false when absent. The
// returned slice is freshly allocated and owned by the caller. The
// index probe holds one shard's read lock for a map lookup only; the
// value read is a pread on the segment file with no lock held, so
// concurrent Gets proceed fully in parallel (records are immutable once
// indexed, and the segment snapshot that indexed them is never
// unpublished while the store is open). A caller replaying many keys
// reads faster through its own Reader.
func (s *Store) Get(k Key) ([]byte, bool, error) {
	if s == nil {
		return nil, false, nil
	}
	s.nGet.Add(1)
	loc, ok := s.lookup(k)
	if !ok {
		return nil, false, nil
	}
	v := make([]byte, loc.size)
	if err := s.readAt(v, loc); err != nil {
		return nil, false, err
	}
	s.nGetHit.Add(1)
	return v, true, nil
}

// readAt fills v from the segment bytes at loc.
func (s *Store) readAt(v []byte, loc diskLoc) error {
	if _, err := (*s.segs.Load())[loc.seg].f.ReadAt(v, loc.off); err != nil {
		return fmt.Errorf("runcache: reading value: %w", err)
	}
	return nil
}

// Has reports whether k is stored, without reading the value.
func (s *Store) Has(k Key) bool {
	if s == nil {
		return false
	}
	_, ok := s.lookup(k)
	return ok
}

// Put appends (k, v) to the active segment. Storing a key that is
// already present is a no-op: values are content-addressed, so a
// duplicate write is by definition identical.
func (s *Store) Put(k Key, v []byte) error {
	if s == nil {
		return nil
	}
	s.segMu.Lock()
	defer s.segMu.Unlock()
	if _, dup := s.lookup(k); dup { // Puts serialize on segMu, so this check is atomic
		return nil
	}
	if s.active.end.Load() >= maxSegmentSize {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	body := recHeaderSize + len(v)
	rec := make([]byte, body+4)
	copy(rec[:4], diskMagic[:])
	copy(rec[4:36], k[:])
	binary.LittleEndian.PutUint32(rec[36:40], uint32(len(v)))
	copy(rec[recHeaderSize:], v)
	binary.LittleEndian.PutUint32(rec[body:], crc32.ChecksumIEEE(rec[4:body]))
	if _, err := s.active.f.Write(rec); err != nil {
		return fmt.Errorf("runcache: appending record: %w", err)
	}
	off := s.active.end.Load()
	s.active.end.Store(off + int64(len(rec))) // publish before indexing
	loc := diskLoc{seg: int32(s.nSegs() - 1), off: off + recHeaderSize, size: uint32(len(v))}
	sh := s.shard(k)
	sh.mu.Lock()
	sh.index[k] = loc
	sh.mu.Unlock()
	s.count++
	s.nPut.Add(1)
	return nil
}

// Len reports the number of distinct keys stored.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.segMu.Lock()
	defer s.segMu.Unlock()
	return s.count
}

// DiskStats reports lookups, lookup hits, and appended records since
// open. Safe to call concurrently.
func (s *Store) DiskStats() (gets, hits, puts uint64) {
	if s == nil {
		return 0, 0, 0
	}
	return s.nGet.Load(), s.nGetHit.Load(), s.nPut.Load()
}

// OpenStats reports what OpenStore's recovery scan did; the zero value
// for a nil store.
func (s *Store) OpenStats() OpenStats {
	if s == nil {
		return OpenStats{}
	}
	return s.open
}

// Sync flushes the active segment to stable storage — the checkpoint
// operation graceful shutdown relies on.
func (s *Store) Sync() error {
	if s == nil {
		return nil
	}
	s.segMu.Lock()
	defer s.segMu.Unlock()
	if s.active == nil {
		return nil
	}
	return s.active.f.Sync()
}

// Close syncs and releases every segment handle. The store must not be
// used afterwards.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.segMu.Lock()
	defer s.segMu.Unlock()
	var first error
	if s.active != nil {
		if err := s.active.f.Sync(); err != nil {
			first = err
		}
	}
	if p := s.segs.Load(); p != nil {
		for _, seg := range *p {
			if err := seg.f.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	s.segs.Store(&[]*segment{})
	s.active = nil
	return first
}

// Flight is a non-retaining single-flight: concurrent Do calls with the
// same key run fn once and share its result, and the key is forgotten as
// soon as the flight lands. It is the coordination layer between the
// disk store (which persists results) and a campaign's workers (which
// must not simulate the same key twice concurrently). It holds no
// values, so memory stays bounded by the number of in-flight keys, not
// distinct ones.
type Flight[V any] struct {
	mu sync.Mutex
	m  map[Key]*flightCall[V]
}

type flightCall[V any] struct {
	done     chan struct{}
	val      V
	panicked any
}

// NewFlight returns an empty flight group.
func NewFlight[V any]() *Flight[V] {
	return &Flight[V]{m: make(map[Key]*flightCall[V])}
}

// Do returns fn's result for k, running it once across concurrent
// callers. A panic in fn propagates to every caller of that flight;
// subsequent calls with the same key start a fresh flight.
func (g *Flight[V]) Do(k Key, fn func() V) V {
	g.mu.Lock()
	if c, ok := g.m[k]; ok {
		g.mu.Unlock()
		<-c.done
		if c.panicked != nil {
			panic(c.panicked)
		}
		return c.val
	}
	c := &flightCall[V]{done: make(chan struct{})}
	g.m[k] = c
	g.mu.Unlock()

	defer func() {
		g.mu.Lock()
		delete(g.m, k)
		g.mu.Unlock()
		if r := recover(); r != nil {
			c.panicked = r
			close(c.done)
			panic(r)
		}
		close(c.done)
	}()
	c.val = fn()
	return c.val
}
