package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro/internal/sim
cpu: some CPU
BenchmarkSimKernel-8   	27412988	        42.84 ns/op	       0 B/op	       0 allocs/op
BenchmarkHeapChurn-8   	18321776	        64.73 ns/op	       0 B/op	       0 allocs/op
BenchmarkNoMem         	  100000	      1500 ns/op
PASS
ok  	repro/internal/sim	3.456s
`

func TestParse(t *testing.T) {
	got, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	k := got["BenchmarkSimKernel"]
	if k.NsPerOp != 42.84 || k.BytesPerOp != 0 || k.AllocsPerOp != 0 {
		t.Errorf("SimKernel = %+v", k)
	}
	// No -benchmem columns: memory fields stay zero, ns/op still parses.
	if nm := got["BenchmarkNoMem"]; nm.NsPerOp != 1500 {
		t.Errorf("NoMem = %+v", nm)
	}
	if len(got) != 3 {
		t.Errorf("parsed %d benchmarks, want 3", len(got))
	}
}

func TestRunEmitsValidSortedJSON(t *testing.T) {
	var out, errb strings.Builder
	if code := run(nil, strings.NewReader(sample), &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	var m map[string]Result
	if err := json.Unmarshal([]byte(out.String()), &m); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if m["BenchmarkHeapChurn"].NsPerOp != 64.73 {
		t.Errorf("HeapChurn = %+v", m["BenchmarkHeapChurn"])
	}
	// Keys must be emitted in sorted order for stable diffs.
	if i, j := strings.Index(out.String(), "HeapChurn"), strings.Index(out.String(), "SimKernel"); i > j {
		t.Error("keys not sorted")
	}
}

func TestRunNoInput(t *testing.T) {
	var out, errb strings.Builder
	if code := run(nil, strings.NewReader("PASS\n"), &out, &errb); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "no benchmark") {
		t.Error("missing diagnostic")
	}
}

// writeBaseline records sample-style results as a BENCH.json fixture.
func writeBaseline(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareWithinLimit(t *testing.T) {
	base := writeBaseline(t, `{
  "BenchmarkHeapChurn": {"ns_per_op": 60, "bytes_per_op": 0, "allocs_per_op": 2},
  "BenchmarkSimKernel": {"ns_per_op": 40, "bytes_per_op": 0, "allocs_per_op": 0},
  "BenchmarkVanished": {"ns_per_op": 10, "bytes_per_op": 0, "allocs_per_op": 0}
}`)
	var out, errb strings.Builder
	if code := run([]string{"-baseline", base}, strings.NewReader(sample), &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s\nstdout: %s", code, errb.String(), out.String())
	}
	// 42.84 vs 40 is +7.1%, under the limit; NoMem is added, Vanished
	// gone — both named in the table AND acknowledged by the footer.
	for _, want := range []string{"+7.1%", "(added)", "(vanished)", "2 -> 0",
		"geomean speedup over 2 shared", "1 added (not in geomean)", "1 vanished"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q in:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("unexpected regression mark:\n%s", out.String())
	}
}

// TestCompareAllAdded pins the degenerate comparison where nothing is
// shared: every benchmark is added, the footer says so, and the run
// still succeeds (added benchmarks cannot regress).
func TestCompareAllAdded(t *testing.T) {
	base := writeBaseline(t, `{}`)
	var out, errb strings.Builder
	if code := run([]string{"-baseline", base}, strings.NewReader(sample), &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if got := strings.Count(out.String(), "(added)"); got != 3 {
		t.Errorf("added rows = %d, want 3:\n%s", got, out.String())
	}
	for _, want := range []string{"no shared benchmarks", "3 added (not in geomean)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q in:\n%s", want, out.String())
		}
	}
}

func TestCompareFailsOnRegression(t *testing.T) {
	base := writeBaseline(t, `{
  "BenchmarkSimKernel": {"ns_per_op": 30, "bytes_per_op": 0, "allocs_per_op": 0}
}`)
	var out, errb strings.Builder
	if code := run([]string{"-baseline", base}, strings.NewReader(sample), &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s", code, out.String())
	}
	// 42.84 vs 30 is +42.8%, beyond the 20% limit.
	if !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("missing REGRESSED mark:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "regression beyond 20%") {
		t.Errorf("missing diagnostic: %s", errb.String())
	}
}

// TestCompareFailsWhenZeroAllocBenchmarkAllocates pins the strict
// deterministic gate: a benchmark recorded at 0 allocs/op fails the
// comparison once it allocates, even with ns/op well inside the limit.
func TestCompareFailsWhenZeroAllocBenchmarkAllocates(t *testing.T) {
	base := writeBaseline(t, `{
  "BenchmarkSimKernel": {"ns_per_op": 42, "bytes_per_op": 0, "allocs_per_op": 0}
}`)
	in := "BenchmarkSimKernel-8   	27412988	        42.84 ns/op	      16 B/op	       1 allocs/op\n"
	var out, errb strings.Builder
	if code := run([]string{"-baseline", base}, strings.NewReader(in), &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "0 -> 1  ALLOCATES") || strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("want an ALLOCATES mark and no REGRESSED mark:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "now allocates") {
		t.Errorf("missing diagnostic: %s", errb.String())
	}
}

// TestCompareAllowsAllocChangesOffZero: only the 0 → >0 transition is
// gated; a benchmark that already allocated may allocate more or less,
// and one that stays at 0 passes.
func TestCompareAllowsAllocChangesOffZero(t *testing.T) {
	base := writeBaseline(t, `{
  "BenchmarkSimKernel": {"ns_per_op": 42, "bytes_per_op": 0, "allocs_per_op": 0},
  "BenchmarkHeapChurn": {"ns_per_op": 64, "bytes_per_op": 0, "allocs_per_op": 3}
}`)
	in := "BenchmarkSimKernel-8   	27412988	        42.84 ns/op	       0 B/op	       0 allocs/op\n" +
		"BenchmarkHeapChurn-8   	18321776	        64.73 ns/op	     512 B/op	       9 allocs/op\n"
	var out, errb strings.Builder
	if code := run([]string{"-baseline", base}, strings.NewReader(in), &out, &errb); code != 0 {
		t.Fatalf("exit %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if strings.Contains(out.String(), "ALLOCATES") || !strings.Contains(out.String(), "3 -> 9") {
		t.Errorf("unexpected gate marks:\n%s", out.String())
	}
}

func TestCompareMissingBaselineFile(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-baseline", filepath.Join(t.TempDir(), "nope.json")},
		strings.NewReader(sample), &out, &errb); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
}

const metricSample = `goos: linux
BenchmarkPacketKernel-8 	    9000	    124783 ns/op	      3135 packets/op	       0 B/op	       0 allocs/op
BenchmarkAblation-8     	       1	1234567 ns/op	         2.408 fluid_s	         2.496 packet_s
PASS
`

func TestParseCustomMetrics(t *testing.T) {
	got, err := parse(strings.NewReader(metricSample))
	if err != nil {
		t.Fatal(err)
	}
	pk := got["BenchmarkPacketKernel"]
	if pk.NsPerOp != 124783 || pk.AllocsPerOp != 0 {
		t.Errorf("PacketKernel = %+v", pk)
	}
	if pk.Metrics["packets/op"] != 3135 {
		t.Errorf("PacketKernel metrics = %v, want packets/op 3135", pk.Metrics)
	}
	ab := got["BenchmarkAblation"]
	if ab.Metrics["fluid_s"] != 2.408 || ab.Metrics["packet_s"] != 2.496 {
		t.Errorf("Ablation metrics = %v", ab.Metrics)
	}
	// Standard units never leak into Metrics.
	for _, unit := range []string{"ns/op", "B/op", "allocs/op"} {
		if _, ok := pk.Metrics[unit]; ok {
			t.Errorf("standard unit %s captured as custom metric", unit)
		}
	}
}

func TestMetricsRoundTripAndOmitted(t *testing.T) {
	var out, errb strings.Builder
	if code := run(nil, strings.NewReader(metricSample), &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	var m map[string]Result
	if err := json.Unmarshal([]byte(out.String()), &m); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if m["BenchmarkPacketKernel"].Metrics["packets/op"] != 3135 {
		t.Errorf("metrics lost in round trip: %+v", m["BenchmarkPacketKernel"])
	}
	// Entries without custom metrics must omit the field entirely.
	var plain, errp strings.Builder
	run(nil, strings.NewReader(sample), &plain, &errp)
	if strings.Contains(plain.String(), "metrics") {
		t.Errorf("metrics key emitted for benchmarks without custom metrics:\n%s", plain.String())
	}
}

func TestBaselineGateIgnoresMetricDrift(t *testing.T) {
	// The baseline carries wildly different custom metrics; only ns/op
	// may gate the comparison.
	dir := t.TempDir()
	base := filepath.Join(dir, "BENCH.json")
	baseJSON := `{"BenchmarkPacketKernel": {"ns_per_op": 124783, "bytes_per_op": 0, "allocs_per_op": 0, "metrics": {"packets/op": 1}}}`
	if err := os.WriteFile(base, []byte(baseJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb strings.Builder
	code := run([]string{"-baseline", base}, strings.NewReader(metricSample), &out, &errb)
	if code != 0 {
		t.Fatalf("metric drift failed the gate (exit %d):\n%s%s", code, out.String(), errb.String())
	}
}
