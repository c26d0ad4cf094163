// Command e2ebench is the repository's end-to-end benchmark. It times
// the four jobs a user runs — the paper-reproduction suite, a cold and a
// warm persistent-cache campaign, and a distributed campaign over HTTP —
// checks their output bytes, and prints one JSON result line.
//
// Build and run it through run.sh from the repository root:
//
//	bash e2ebench/run.sh --workload suite --seed 1 --seconds 12 --trace 0
//	bash e2ebench/run.sh -selftest
//
// Every timed job runs in a fresh child process of this binary, so it
// starts from the process-wide memo state a user's fresh invocation sees.
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of traced jobs. README.md
// describes the workloads and what each metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+fmt.Sprint(workloadNames))
	seed := fs.Int64("seed", 0, "workload seed (exp.Config.BaseSeed, Spec.Seeds.Base)")
	seconds := fs.Float64("seconds", 12, "how long to keep starting timed jobs")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced jobs")
	tiny := fs.Bool("tiny", false, "use the tiny specs of -selftest instead of the benchmark specs")
	selftest := fs.Bool("selftest", false, "run every workload once on the tiny specs and check digests and metric names")
	record := fs.Int("record", 0, "recompute the reference digests for seeds 0..N-1 into testdata/digests.json")
	child := fs.String("child", "", "internal: run one job in this process (job or ref) and print its record")
	store := fs.String("store", "", "internal: the job's persistent store directory")
	traced := fs.Bool("traced", false, "internal: profile the job and time its layers")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *child != "":
		return childMain(*child, *workload, *seed, *tiny, *traced, *store)
	case *selftest:
		return selfTest()
	case *record > 0:
		return recordDigests(*record)
	}
	if !slices.Contains(workloadNames, *workload) || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload %v and --trace 0|1\n", workloadNames)
		return 2
	}
	res := measure(options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, tiny: *tiny})
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}
