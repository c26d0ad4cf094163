package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

const (
	// hardLimit keeps a whole invocation inside the 180 s a benchmark
	// run may take, whatever the host's speed.
	hardLimit = 170 * time.Second
	workRoot  = ".bench_build/work"
)

// job is one finished child process as the parent saw it.
type job struct {
	rec    *jobRecord
	traced bool
	setup  float64 // s, from process start to first run issued
	rssMB  float64
}

// measure runs one workload: it prepares the reference output (and,
// for campaign_warm, the populated store), then starts fresh-process
// jobs until opts.seconds have passed, checking every job's output.
func measure(o options) result {
	began := time.Now()
	res := result{Metrics: map[string]value{}}
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
		res.Failed++
	}
	dir, err := os.MkdirTemp(ensureDir(workRoot), o.workload+"-")
	if err != nil {
		fail("%v", err)
		return finish(res, o, nil)
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithDeadline(context.Background(), began.Add(hardLimit))
	defer cancel()

	want, err := reference(ctx, o)
	if err != nil {
		res.Attempted++
		fail("reference: %v", err)
		return finish(res, o, nil)
	}
	store := ""
	if o.workload == wWarm {
		store = filepath.Join(dir, "store")
		// Populating the store is preparation, outside every metric.
		j, err := spawn(ctx, childArgs("job", wCold, o.seed, o.tiny, store, false))
		if err == nil && j.rec.Digest != want {
			err = fmt.Errorf("output digest %s, want %s", j.rec.Digest, want)
		}
		if err != nil {
			res.Attempted++
			fail("populating the store: %v", err)
			return finish(res, o, nil)
		}
	}

	var jobs []job
	var counts map[string]float64
	loopStart := time.Now()
	var longest time.Duration
	for i := 0; ; i++ {
		elapsed := time.Since(loopStart)
		enough := elapsed.Seconds() >= o.seconds && (!o.trace || i >= 2)
		if (enough && i > 0) || time.Since(began)+2*longest > hardLimit-10*time.Second {
			break
		}
		traced := o.trace && i%2 == 1
		jobStore := store
		if o.workload == wCold {
			jobStore = filepath.Join(dir, "cold-"+strconv.Itoa(i))
		}
		res.Attempted++
		start := time.Now()
		j, err := spawn(ctx, childArgs("job", o.workload, o.seed, o.tiny, jobStore, traced))
		j.traced = traced
		longest = max(longest, time.Since(start))
		if o.workload == wCold {
			os.RemoveAll(jobStore)
		}
		switch {
		case err != nil:
			fail("job %d: %v", i, err)
		case j.rec.Digest != want:
			fail("job %d: output digest %s, want %s", i, j.rec.Digest, want)
		case counts != nil && !maps.Equal(counts, j.rec.Counts):
			fail("job %d: nondeterministic counters %v, first job had %v", i, j.rec.Counts, counts)
		default:
			if counts == nil {
				counts = j.rec.Counts
			}
			jobs = append(jobs, j)
		}
	}
	return finish(res, o, jobs)
}

func ensureDir(dir string) string {
	os.MkdirAll(dir, 0o755) // MkdirTemp reports any failure
	return dir
}

// reference returns the digest the workload's output must have: the
// recorded one for this commit when the seed has one, otherwise one
// computed now on the simplest path in a fresh process.
func reference(ctx context.Context, o options) (string, error) {
	if d, ok := recordedDigest(refKind(o.workload), o.tiny, o.seed); ok {
		return d, nil
	}
	j, err := spawn(ctx, childArgs("ref", o.workload, o.seed, o.tiny, "", false))
	if err != nil {
		return "", err
	}
	return j.rec.Digest, nil
}

func childArgs(kind, wl string, seed int64, tiny bool, store string, traced bool) []string {
	return []string{"-child", kind, "-workload", wl, "-seed", strconv.FormatInt(seed, 10),
		"-tiny=" + strconv.FormatBool(tiny), "-store", store, "-traced=" + strconv.FormatBool(traced)}
}

// spawn runs one child job in a fresh process and reads its record.
func spawn(ctx context.Context, args []string) (job, error) {
	self, err := os.Executable()
	if err != nil {
		return job{}, err
	}
	cmd := exec.CommandContext(ctx, self, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return job{}, fmt.Errorf("%v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var rec jobRecord
	if err := json.Unmarshal(lines[len(lines)-1], &rec); err != nil {
		return job{}, fmt.Errorf("reading the job record: %w", err)
	}
	j := job{rec: &rec, setup: time.Unix(0, rec.FirstRun).Sub(start).Seconds()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		j.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return j, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// finish turns the successful jobs into the declared metrics:
// end-to-end ones from untraced jobs, per-layer ones from traced jobs
// (the allocation deltas and unattributed time need untraced ones).
func finish(res result, o options, jobs []job) result {
	var untraced, traced []job
	for _, j := range jobs {
		if j.traced {
			traced = append(traced, j)
		} else {
			untraced = append(untraced, j)
		}
	}
	pick := func(js []job, f func(job) float64) float64 {
		xs := make([]float64, len(js))
		for i, j := range js {
			xs[i] = f(j)
		}
		return median(xs)
	}
	res.Correct = res.Failed == 0 && len(untraced) > 0 && (!o.trace || len(traced) > 0)
	untracedWall := pick(untraced, func(j job) float64 { return j.rec.WallS })
	if !o.trace {
		vals := map[string]float64{
			"setup_s":     pick(untraced, func(j job) float64 { return j.setup }),
			"wall_s":      untracedWall,
			"runs_per_s":  pick(untraced, func(j job) float64 { return j.rec.Runs / j.rec.WallS }),
			"peak_rss_mb": pick(untraced, func(j job) float64 { return j.rssMB }),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = value{vals[m.name], m.unit}
		}
		report(res, o, len(untraced))
		return res
	}

	vals := map[string]float64{}
	for _, m := range perLayer() {
		src := traced
		if strings.HasPrefix(m.name, "runtime.") {
			src = untraced
		}
		vals[m.name] = pick(src, func(j job) float64 {
			if v, ok := j.rec.Counts[m.name]; ok {
				return v
			}
			return j.rec.Layer[m.name]
		})
	}
	cpu := map[string]float64{}
	var total float64
	for _, j := range traced {
		for l, ns := range j.rec.CPU {
			cpu[l] += ns
			total += ns
		}
	}
	for l, ns := range cpu {
		vals["cpu."+l] = 100 * ns / total
	}
	if tw := pick(traced, func(j job) float64 { return j.rec.WallS }); untracedWall > 0 {
		vals["trace.overhead_ratio"] = tw/untracedWall - 1
	}
	if o.workload == wWarm {
		vals["campaign.unattributed_s"] = untracedWall - pick(traced, func(j job) float64 { return j.rec.ReplayS })
	}
	for _, m := range perLayer() {
		res.Metrics[m.name] = value{vals[m.name], m.unit}
	}
	report(res, o, len(jobs))
	return res
}

// report prints a human-readable summary on standard error.
func report(res result, o options, used int) {
	rate := 0.0
	if res.Attempted > 0 {
		rate = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d trace %t: %d jobs used, error_rate %g (%d/%d)\n",
		o.workload, o.seed, o.trace, used, rate, res.Failed, res.Attempted)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
}
