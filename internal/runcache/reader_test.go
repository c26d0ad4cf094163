package runcache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// testValue is key i's value: n bytes that name i in every position, so
// a read of the wrong or a partly written record cannot pass for it.
func testValue(i, n int) []byte {
	v := make([]byte, n)
	for j := range v {
		v[j] = byte(i*31 + j)
	}
	if n >= 4 {
		binary.LittleEndian.PutUint32(v, uint32(i))
	}
	return v
}

// mustGet reads key i through r and checks its value.
func mustGet(t *testing.T, r *Reader, i, n int) {
	t.Helper()
	v, ok, err := r.Get(testKey(i))
	if err != nil || !ok {
		t.Fatalf("Get(%d): ok=%v err=%v", i, ok, err)
	}
	if !bytes.Equal(v, testValue(i, n)) {
		t.Fatalf("Get(%d): %d bytes, wrong value", i, len(v))
	}
}

// TestStoreReaderWindow reads back records that straddle the window's
// edge, records larger than the window, and a record in an earlier
// segment after a later one.
func TestStoreReaderWindow(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// 1000-byte values cross the 64 KiB window edge every ~60 records;
	// a 3000-byte run and two values past the window size mix it up.
	sizes := map[int]int{}
	for i := 0; i < 300; i++ {
		n := 1000
		switch {
		case i == 100 || i == 200:
			n = readWindow + 1 + i
		case i%50 == 7:
			n = 3000
		}
		sizes[i] = n
		if err := s.Put(testKey(i), testValue(i, n)); err != nil {
			t.Fatal(err)
		}
	}
	s.segMu.Lock()
	err = s.rotateLocked()
	s.segMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	for i := 300; i < 400; i++ {
		sizes[i] = 1000
		if err := s.Put(testKey(i), testValue(i, 1000)); err != nil {
			t.Fatal(err)
		}
	}

	r := s.NewReader()
	for i := 0; i < 400; i++ { // forward, as a grid replay reads
		mustGet(t, r, i, sizes[i])
	}
	// A large value leaves the window in place: its neighbours still
	// read back, and the window keeps serving the first segment.
	mustGet(t, r, 99, sizes[99])
	mustGet(t, r, 100, sizes[100])
	mustGet(t, r, 101, sizes[101])
	// Back to the first segment from the second, and forth again.
	mustGet(t, r, 350, 1000)
	mustGet(t, r, 5, sizes[5])
	mustGet(t, r, 351, 1000)
	// Random order, reopened from disk.
	s.Close()
	s2, err := OpenStore(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	r = s2.NewReader()
	rng := rand.New(rand.NewSource(1))
	for range 2000 {
		i := rng.Intn(400)
		mustGet(t, r, i, sizes[i])
	}
	if _, ok, err := r.Get(testKey(400)); ok || err != nil {
		t.Fatalf("absent key: ok=%v err=%v", ok, err)
	}
	gets, hits, _ := s2.DiskStats()
	if gets != 2001 || hits != 2000 {
		t.Errorf("gets=%d hits=%d want 2001 and 2000", gets, hits)
	}
}

// TestStoreReaderRacesPut reads the active segment while a writer
// appends to it. A Reader must never return a key that was not yet
// stored, nor a record in progress: every hit is the full value.
func TestStoreReaderRacesPut(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 3000
	size := func(i int) int { return 40 + i%400*7 }
	var started, stored atomic.Int64 // keys [0, started) were Put or are being Put
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			started.Store(int64(i + 1))
			if err := s.Put(testKey(i), testValue(i, size(i))); err != nil {
				t.Error(err)
				return
			}
			stored.Store(int64(i + 1))
		}
	}()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := s.NewReader()
			rng := rand.New(rand.NewSource(int64(w)))
			for stored.Load() < n {
				done := stored.Load()
				i := int(done) - rng.Intn(8) + 4 // around the write head
				if i < 0 {
					continue
				}
				v, ok, err := r.Get(testKey(i))
				if err != nil {
					t.Error(err)
					return
				}
				switch {
				case ok && int64(i) >= started.Load():
					t.Errorf("key %d read before its Put began", i)
					return
				case ok && !bytes.Equal(v, testValue(i, size(i))):
					t.Errorf("key %d: partial or wrong value (%d bytes)", i, len(v))
					return
				case !ok && int64(i) < done:
					t.Errorf("key %d stored but missed", i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestStoreReaderNeverServesUnpublishedBytes stages a Put in progress
// deterministically: bytes that are not yet a record sit past the
// active segment's published end when the window fills, and the Put
// then writes the real record over them. The Reader must serve the
// record, not the bytes its window could have read early.
func TestStoreReaderNeverServesUnpublishedBytes(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(testKey(0), testValue(0, 100)); err != nil {
		t.Fatal(err)
	}
	half, err := os.OpenFile(filepath.Join(dir, "cache-000001.seg"), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer half.Close()
	if _, err := half.WriteAt(bytes.Repeat([]byte{0xEE}, 300), s.active.end.Load()); err != nil {
		t.Fatal(err)
	}
	r := s.NewReader()
	mustGet(t, r, 0, 100) // fills the window while the staged bytes are on disk
	if err := s.Put(testKey(1), testValue(1, 100)); err != nil {
		t.Fatal(err)
	}
	mustGet(t, r, 1, 100)
}

// TestDiskStoreRecoveryAcrossScanBuffer recovers segments whose records
// straddle the scan buffer's edge or outgrow it, intact and with a
// corrupt record on either side of the edge.
func TestDiskStoreRecoveryAcrossScanBuffer(t *testing.T) {
	write := func(t *testing.T) (string, []int64) {
		dir := t.TempDir()
		s, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		var offs []int64 // record start offsets
		var off int64
		for i := 0; i < 80; i++ {
			n := 1000
			if i == 70 {
				n = scanBufSize + 500
			}
			offs = append(offs, off)
			off += recHeaderSize + int64(n) + 4
			if err := s.Put(testKey(i), testValue(i, n)); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
		return dir, offs
	}
	// straddle is the record that crosses the first buffer's edge.
	_, offs := write(t)
	straddle := 0
	for offs[straddle+1] <= scanBufSize {
		straddle++
	}
	for _, tc := range []struct {
		name    string
		corrupt int // record whose value gets a flipped bit; -1 for none
		want    int
	}{
		{"intact", -1, 80},
		{"straddling", straddle, straddle},
		{"after-edge", straddle + 1, straddle + 1},
		{"larger-than-buffer", 70, 70},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, offs := write(t)
			seg := filepath.Join(dir, "cache-000001.seg")
			if tc.corrupt >= 0 {
				raw, err := os.ReadFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				raw[offs[tc.corrupt]+recHeaderSize+500] ^= 0x10
				if err := os.WriteFile(seg, raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			s, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if s.Len() != tc.want {
				t.Fatalf("Len=%d want %d", s.Len(), tc.want)
			}
			r := s.NewReader()
			for i := 0; i < tc.want; i++ {
				n := 1000
				if i == 70 {
					n = scanBufSize + 500
				}
				mustGet(t, r, i, n)
			}
			fi, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.want < 80 && fi.Size() != offs[tc.want] {
				t.Errorf("segment is %d bytes, want truncation at %d", fi.Size(), offs[tc.want])
			}
		})
	}
}

// TestDiskStoreOpenStats checks what OpenStore reports about its scan.
func TestDiskStoreOpenStats(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.OpenStats(); st.Records != 0 || st.Bytes != 0 {
		t.Errorf("empty store: %+v", st)
	}
	for i := 0; i < 30; i++ {
		if err := s.Put(testKey(i), []byte(fmt.Sprintf("v%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	seg := filepath.Join(dir, "cache-000001.seg")
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("torn")) // scanned, then truncated
	f.Close()
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.OpenStats()
	if want := int64(30*(recHeaderSize+3+4) + 4); st.Records != 30 || st.Bytes != want || st.Took <= 0 {
		t.Errorf("OpenStats = %+v, want 30 records, %d bytes, positive duration", st, want)
	}
	var nilStore *Store
	if st := nilStore.OpenStats(); st != (OpenStats{}) {
		t.Errorf("nil store OpenStats = %+v", st)
	}
	if _, ok, err := nilStore.NewReader().Get(testKey(1)); ok || err != nil {
		t.Error("nil store Reader should miss")
	}
}
