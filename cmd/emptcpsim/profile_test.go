package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/campaign"
)

// checkProfile requires path to hold a gzipped pprof protobuf: it walks
// every top-level field of the message and requires the sample types
// (field 1) and string table (field 6) every profile carries.
func checkProfile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 {
		t.Fatalf("%s: empty profile", path)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	msg, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if err := walkProto(msg, map[uint64]bool{1: true, 6: true}); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// walkProto checks msg is well-formed protobuf wire format containing
// every field number in want.
func walkProto(msg []byte, want map[uint64]bool) error {
	for len(msg) > 0 {
		tag, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("bad tag varint")
		}
		msg = msg[n:]
		delete(want, tag>>3)
		switch tag & 7 {
		case 0:
			if _, n = binary.Uvarint(msg); n <= 0 {
				return fmt.Errorf("bad varint in field %d", tag>>3)
			}
		case 1:
			n = 8
		case 2:
			l, m := binary.Uvarint(msg)
			if m <= 0 || l > uint64(len(msg)-m) {
				return fmt.Errorf("bad length in field %d", tag>>3)
			}
			n = m + int(l)
		case 5:
			n = 4
		default:
			return fmt.Errorf("wire type %d in field %d", tag&7, tag>>3)
		}
		if n > len(msg) {
			return fmt.Errorf("field %d overruns the message", tag>>3)
		}
		msg = msg[n:]
	}
	if len(want) > 0 {
		return fmt.Errorf("fields %v missing", want)
	}
	return nil
}

func TestCampaignProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var out, errb strings.Builder
	if code := run([]string{"campaign", "-j", "1", "-population", "2", "-size", "0.25",
		"-cpuprofile", cpu, "-memprofile", mem, "wild"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	checkProfile(t, cpu)
	checkProfile(t, mem)

	if code := run([]string{"campaign", "-cpuprofile", filepath.Join(dir, "missing", "cpu.pprof"), "wild"}, &out, &errb); code != 1 {
		t.Errorf("unwritable -cpuprofile: exit %d, want 1", code)
	}
}

// syncBuffer is a strings.Builder safe for a writer and a poller.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestWorkerProfileFlags runs a worker against an idle coordinator,
// stops it the way an operator does (SIGINT), and checks it wrote both
// profiles on the way out.
func TestWorkerProfileFlags(t *testing.T) {
	srv := campaign.NewServerOpts(campaign.Options{Jobs: 1})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var out strings.Builder
	var errb syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"worker", "-coordinator", ts.URL, "-j", "1", "-poll", "10ms",
			"-cpuprofile", cpu, "-memprofile", mem}, &out, &errb)
	}()
	deadline := time.After(30 * time.Second)
	for !strings.Contains(errb.String(), "pulling from") {
		select {
		case code := <-done:
			t.Fatalf("worker exited early with %d: %s", code, errb.String())
		case <-deadline:
			t.Fatal("worker never started")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("worker exit %d: %s", code, errb.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker ignored SIGINT")
	}
	checkProfile(t, cpu)
	checkProfile(t, mem)
}
