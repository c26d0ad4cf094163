package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestInvalidInvocationsExitNonZero is the CLI exit-code contract, one
// table: every invalid invocation exits non-zero with a usage message
// on stderr and NOTHING on stdout — so `emptcpsim ... > out.json`
// pipelines can trust that a zero exit produced the output and a
// non-zero exit produced none.
func TestInvalidInvocationsExitNonZero(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-bogus"}},
		{"unknown flag with experiment", []string{"-bogus", "fig1"}},
		{"unknown device", []string{"-device", "iphone", "fig1"}},
		{"unknown experiment", []string{"fig99"}},
		{"unknown experiment after valid", []string{"-quick", "fig1", "fig99"}},
		{"zero workers", []string{"-j", "0", "fig1"}},
		{"negative workers", []string{"-j", "-4", "fig1"}},
		{"trace without experiment", []string{"-trace", "x.jsonl"}},
		{"metrics without experiment", []string{"-metrics", "x.json"}},
		{"trace with all", []string{"-quick", "-trace", "x.jsonl", "all"}},
		{"metrics with all", []string{"-quick", "-metrics", "x.json", "all"}},
		{"trace with two experiments", []string{"-quick", "-trace", "x.jsonl", "fig5", "fig8"}},
		{"serve unknown flag", []string{"serve", "-bogus"}},
		{"serve zero workers", []string{"serve", "-j", "0"}},
		{"serve positional arg", []string{"serve", "extra"}},
		{"campaign unknown flag", []string{"campaign", "-bogus"}},
		{"campaign no spec", []string{"campaign"}},
		{"campaign two specs", []string{"campaign", "a.json", "b.json"}},
		{"campaign zero workers", []string{"campaign", "-j", "0", "wild"}},
		{"serve zero lease ttl", []string{"serve", "-lease-ttl", "0s"}},
		{"worker unknown flag", []string{"worker", "-bogus"}},
		{"worker no coordinator", []string{"worker"}},
		{"worker positional arg", []string{"worker", "-coordinator", "http://x", "extra"}},
		{"worker zero jobs", []string{"worker", "-coordinator", "http://x", "-j", "0"}},
		{"worker zero poll", []string{"worker", "-coordinator", "http://x", "-poll", "0s"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb strings.Builder
			code := run(tc.args, &out, &errb)
			if code == 0 {
				t.Errorf("%v: exit 0, want non-zero", tc.args)
			}
			if out.Len() != 0 {
				t.Errorf("%v: stdout not empty:\n%s", tc.args, out.String())
			}
			if errb.Len() == 0 {
				t.Errorf("%v: stderr empty, want a usage message", tc.args)
			}
		})
	}

	// Runtime failures (valid invocation, bad environment) exit 1, still
	// with clean stdout. A regular file as a -cachedir parent makes
	// OpenStore's MkdirAll fail without touching anything real.
	notADir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"campaign missing spec file", []string{"campaign", filepath.Join(t.TempDir(), "no-such-spec.json")}},
		{"campaign malformed spec", []string{"campaign", "-"}}, // stdin is empty/invalid under go test
		{"campaign bad cachedir", []string{"campaign", "-cachedir", filepath.Join(notADir, "sub"), "-population", "1", "wild"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb strings.Builder
			code := run(tc.args, &out, &errb)
			if code != 1 {
				t.Errorf("%v: exit %d, want 1 (stderr: %s)", tc.args, code, errb.String())
			}
			if out.Len() != 0 {
				t.Errorf("%v: stdout not empty:\n%s", tc.args, out.String())
			}
		})
	}
}

func TestHelpExitsZero(t *testing.T) {
	for _, args := range [][]string{{"-h"}, {"serve", "-h"}, {"campaign", "-h"}, {"worker", "-h"}} {
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code != 0 {
			t.Errorf("%v: exit %d, want 0", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v: help wrote to stdout:\n%s", args, out.String())
		}
		if !strings.Contains(errb.String(), "Usage") && !strings.Contains(errb.String(), "usage") {
			t.Errorf("%v: no usage text on stderr", args)
		}
	}
}

// tinySpecFile writes a minimal fast campaign spec and returns its path.
func tinySpecFile(t *testing.T, dir string) string {
	t.Helper()
	spec := map[string]any{
		"name": "cli-test", "wifi": []string{"bad"}, "lte": []string{"good"},
		"locations": []string{"wdc"}, "sizes_mb": []float64{0.25},
		"protocols": []string{"emptcp"}, "seeds": map[string]any{"base": 3, "count": 4},
		"shard_size": 2,
	}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCampaignSubcommand(t *testing.T) {
	dir := t.TempDir()
	specPath := tinySpecFile(t, dir)

	// -j 1 to stdout is the reference.
	var ref, errb strings.Builder
	if code := run([]string{"campaign", "-j", "1", specPath}, &ref, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(ref.String(), `"spec_digest"`) || !strings.Contains(ref.String(), `"cells"`) {
		t.Fatalf("aggregate JSON malformed:\n%s", ref.String())
	}

	// Parallel + persistent cache: byte-identical to the reference.
	cache := filepath.Join(dir, "cache")
	var par strings.Builder
	errb.Reset()
	if code := run([]string{"campaign", "-j", "4", "-cachedir", cache, "-v", specPath}, &par, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if par.String() != ref.String() {
		t.Errorf("-j 4 + cachedir output differs from -j 1:\n%s\nvs\n%s", par.String(), ref.String())
	}
	if !strings.Contains(errb.String(), "hit rate") {
		t.Errorf("-v wrote no stats to stderr: %s", errb.String())
	}
	// The -v contract also covers the persistent store and lockstep
	// counters (single-run -v prints the in-process analogues).
	if !strings.Contains(errb.String(), "runcache store:") || !strings.Contains(errb.String(), "lockstep:") {
		t.Errorf("-v missing store/lockstep stats on stderr: %s", errb.String())
	}
	// A warm re-run reports what opening the filled store cost: the
	// records its recovery scan indexed and the bytes it read.
	var warm strings.Builder
	errb.Reset()
	if code := run([]string{"campaign", "-j", "1", "-cachedir", cache, "-v", specPath}, &warm, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if warm.String() != ref.String() {
		t.Errorf("warm -cachedir output differs from -j 1")
	}
	var gets, hits, puts, records, scanned int
	var openMs float64
	line := errb.String()[strings.Index(errb.String(), "runcache store:"):]
	if _, err := fmt.Sscanf(line, "runcache store: %d gets, %d hits, %d puts; opened in %f ms (%d records, %d bytes scanned)",
		&gets, &hits, &puts, &openMs, &records, &scanned); err != nil {
		t.Fatalf("store line %q: %v", line, err)
	}
	if records == 0 || records != hits || puts != 0 || scanned < records*40 || openMs <= 0 {
		t.Errorf("warm store line %q: want every run indexed at open and hit, none put", line)
	}

	// The -lockstep=0 escape hatch is byte-transparent.
	var noLane strings.Builder
	errb.Reset()
	if code := run([]string{"campaign", "-j", "1", "-lockstep=0", specPath}, &noLane, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if noLane.String() != ref.String() {
		t.Errorf("-lockstep=0 output differs from default")
	}

	// Re-run against the warm cache via -o FILE: same bytes, zero
	// simulated.
	outPath := filepath.Join(dir, "agg.json")
	var out2 strings.Builder
	errb.Reset()
	if code := run([]string{"campaign", "-j", "2", "-cachedir", cache, "-v", "-o", outPath, specPath}, &out2, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if out2.Len() != 0 {
		t.Errorf("-o FILE still wrote to stdout:\n%s", out2.String())
	}
	fromFile, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(fromFile) != ref.String() {
		t.Error("warm-cache -o output differs from reference")
	}
	if !strings.Contains(errb.String(), "0 simulated") {
		t.Errorf("warm re-run was not a pure replay: %s", errb.String())
	}

	// The built-in wild spec runs end to end at a tiny population.
	var wild strings.Builder
	errb.Reset()
	if code := run([]string{"campaign", "-population", "1", "-size", "0.25", "-quickish", "wild"}, &wild, &errb); code == 0 {
		t.Fatal("bogus flag accepted")
	}
	errb.Reset()
	wild.Reset()
	if code := run([]string{"campaign", "-population", "1", "-size", "0.25", "wild"}, &wild, &errb); code != 0 {
		t.Fatalf("wild campaign exit %d, stderr: %s", code, errb.String())
	}
	// 4 categories × 3 locations × 3 protocols × 1 seed = 36 runs,
	// 12 cells.
	if got := strings.Count(wild.String(), `"protocol"`); got != 12 {
		t.Errorf("wild campaign produced %d cells, want 12:\n%.400s", got, wild.String())
	}
}

// TestCampaignCacheDirExactSize pins bug 1 through a shared -cachedir:
// the run key used to round sizes to 0.1 MB, so a 16.04 MB campaign on
// a store a 16 MB campaign had filled was served the 16 MB results.
func TestCampaignCacheDirExactSize(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "cache")
	wild := func(size string, withCache bool) (out, stderr string) {
		t.Helper()
		args := []string{"campaign", "-j", "1", "-population", "2", "-size", size, "-v"}
		if withCache {
			args = append(args, "-cachedir", cache)
		}
		var o, e strings.Builder
		if code := run(append(args, "wild"), &o, &e); code != 0 {
			t.Fatalf("-size %s: exit %d, stderr: %s", size, code, e.String())
		}
		return o.String(), e.String()
	}
	wild("16", true)
	got, stderr := wild("16.04", true)
	if !strings.Contains(stderr, " 0 disk hits") {
		t.Errorf("16.04 MB campaign hit the 16 MB entries: %s", stderr)
	}
	if cold, _ := wild("16.04", false); got != cold {
		t.Error("16.04 MB campaign on the 16 MB store differs from its cold run")
	}
}
