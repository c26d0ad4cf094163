// Command benchjson converts `go test -bench -benchmem` text output on
// stdin into a JSON object on stdout, one entry per benchmark:
//
//	go test -bench=. -benchmem ./... | benchjson > BENCH.json
//
// Each entry maps the benchmark name (GOMAXPROCS suffix stripped) to its
// ns/op, B/op and allocs/op, plus any custom b.ReportMetric units (e.g.
// packets/op, fluid_s) under "metrics". Benchmarks that appear more than
// once (e.g. from -count) keep the last measurement.
//
// With -baseline FILE, benchjson instead compares stdin against a
// previously recorded BENCH.json: it prints a per-benchmark delta table
// (ns/op and allocs/op) and exits non-zero when any benchmark's ns/op
// regressed by more than 20%, or when a benchmark whose baseline is
// allocation-free now allocates (allocs/op is deterministic, so that
// gate is strict). Custom metrics are recorded, never gated —
// they are model observables (completion times, packet counts), not
// performance. Benchmarks present on only one side are
// listed but never fail the comparison:
//
//	go test -bench=. -benchmem ./... | benchjson -baseline BENCH.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result holds one benchmark line's measurements.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Metrics holds custom b.ReportMetric values keyed by unit. JSON maps
	// marshal with sorted keys, so regenerated files diff cleanly.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseline := fs.String("baseline", "", "compare stdin against this BENCH.json instead of emitting JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	results, err := parse(stdin)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	if len(results) == 0 {
		fmt.Fprintln(stderr, "benchjson: no benchmark lines on stdin")
		return 1
	}
	if *baseline != "" {
		return compare(*baseline, results, stdout, stderr)
	}
	// Sorted keys so the file diffs cleanly across regenerations.
	keys := make([]string, 0, len(results))
	for k := range results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("{\n")
	for i, k := range keys {
		enc, _ := json.Marshal(results[k])
		fmt.Fprintf(&b, "  %q: %s", k, enc)
		if i < len(keys)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString("}\n")
	io.WriteString(stdout, b.String())
	return 0
}

// parse scans go-test output for benchmark result lines, i.e.
//
//	BenchmarkName-8   1000000   1234 ns/op   56 B/op   7 allocs/op
func parse(r io.Reader) (map[string]Result, error) {
	out := map[string]Result{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := f[0]
		// Strip the -GOMAXPROCS suffix go test appends.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var res Result
		seen := false
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch unit := f[i+1]; unit {
			case "ns/op":
				res.NsPerOp, seen = v, true
			case "B/op":
				res.BytesPerOp = int64(v)
			case "allocs/op":
				res.AllocsPerOp = int64(v)
			default:
				// A custom b.ReportMetric unit.
				if res.Metrics == nil {
					res.Metrics = map[string]float64{}
				}
				res.Metrics[unit] = v
			}
		}
		if seen {
			out[name] = res
		}
	}
	return out, sc.Err()
}

// regressionLimit is the ns/op growth beyond which compare fails.
const regressionLimit = 0.20

// compare renders a delta table of results against the baseline file and
// reports failure when any shared benchmark's ns/op regressed beyond the
// limit or a 0-alloc baseline benchmark now allocates. New and vanished
// benchmarks are informational only.
func compare(path string, results map[string]Result, stdout, stderr io.Writer) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	base := map[string]Result{}
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(stderr, "benchjson: parsing %s: %v\n", path, err)
		return 1
	}

	names := make([]string, 0, len(results)+len(base))
	for k := range results {
		names = append(names, k)
	}
	for k := range base {
		if _, ok := results[k]; !ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)

	w := len("benchmark")
	for _, n := range names {
		if len(n) > w {
			w = len(n)
		}
	}
	fmt.Fprintf(stdout, "%-*s  %12s  %12s  %8s  %s\n", w, "benchmark", "base ns/op", "new ns/op", "Δns/op", "allocs")
	slow, allocs := false, false
	logSum, shared, added, vanished := 0.0, 0, 0, 0
	for _, n := range names {
		b, inBase := base[n]
		r, inNew := results[n]
		switch {
		case !inBase:
			added++
			fmt.Fprintf(stdout, "%-*s  %12s  %12.1f  %8s  %d (added)\n", w, n, "-", r.NsPerOp, "-", r.AllocsPerOp)
		case !inNew:
			vanished++
			fmt.Fprintf(stdout, "%-*s  %12.1f  %12s  %8s  (vanished)\n", w, n, b.NsPerOp, "-", "-")
		default:
			delta := (r.NsPerOp - b.NsPerOp) / b.NsPerOp
			mark := ""
			if delta > regressionLimit {
				mark = "  REGRESSED"
				slow = true
			}
			if b.AllocsPerOp == 0 && r.AllocsPerOp > 0 {
				mark += "  ALLOCATES"
				allocs = true
			}
			fmt.Fprintf(stdout, "%-*s  %12.1f  %12.1f  %+7.1f%%  %d -> %d%s\n",
				w, n, b.NsPerOp, r.NsPerOp, delta*100, b.AllocsPerOp, r.AllocsPerOp, mark)
			if b.NsPerOp > 0 && r.NsPerOp > 0 {
				logSum += math.Log(b.NsPerOp / r.NsPerOp)
				shared++
			}
		}
	}
	// Geometric mean of per-benchmark speedups (base/new): >1.00x means
	// the new run is faster overall, and no single benchmark dominates.
	// Added and vanished benchmarks have no speedup to fold in; name them
	// in the footer so the omission is visible, not silent.
	foot := fmt.Sprintf("geomean speedup over %d shared: %.2fx", shared, math.Exp(logSum/float64(max(shared, 1))))
	if shared == 0 {
		foot = "no shared benchmarks"
	}
	if added > 0 {
		foot += fmt.Sprintf("; %d added (not in geomean)", added)
	}
	if vanished > 0 {
		foot += fmt.Sprintf("; %d vanished", vanished)
	}
	fmt.Fprintf(stdout, "%-*s  %s\n", w, "", foot)
	if slow {
		fmt.Fprintf(stderr, "benchjson: ns/op regression beyond %.0f%% against %s\n", regressionLimit*100, path)
	}
	if allocs {
		fmt.Fprintf(stderr, "benchjson: a 0-alloc benchmark in %s now allocates\n", path)
	}
	if slow || allocs {
		return 1
	}
	return 0
}
