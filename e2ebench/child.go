package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/energy"
	"repro/internal/exp"
	"repro/internal/lockstep"
	"repro/internal/runcache"
	"repro/internal/scenario"
)

// jobRecord is what one child process reports about its job.
type jobRecord struct {
	// FirstRun is the wall-clock time the first run was issued; the
	// parent subtracts the time it started the process to get setup_s.
	FirstRun int64   `json:"first_run_unix_ns"`
	WallS    float64 `json:"wall_s"`
	// Runs is the job's size: grid runs for a campaign, experiments
	// for the suite.
	Runs   float64 `json:"runs"`
	Digest string  `json:"digest"`
	// Counts holds the exactCounts, which must repeat across jobs.
	Counts map[string]float64 `json:"counts"`
	// Layer holds per-layer metrics measured in this process.
	Layer map[string]float64 `json:"layer"`
	// CPU is profile time per layer in ns (traced jobs only).
	CPU map[string]float64 `json:"cpu_ns,omitempty"`
	// ReplayS is the summed time of the replay's public calls
	// (CacheKey and Store.Get, once per run) on campaign_warm.
	ReplayS float64 `json:"replay_s,omitempty"`
}

func newRecord() *jobRecord {
	return &jobRecord{Counts: map[string]float64{}, Layer: map[string]float64{}}
}

// childMain runs one job in this process and prints its record as the
// last line of standard output.
func childMain(kind, wl string, seed int64, tiny, traced bool, store string) int {
	rec, err := runChild(kind, wl, seed, tiny, traced, store)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(rec); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	return 0
}

// runChild dispatches a child invocation. A "ref" job computes the
// reference output on the simplest path: the suite with cache, fork
// and lockstep off; a campaign locally at -j 1 with no store.
func runChild(kind, wl string, seed int64, tiny, traced bool, store string) (*jobRecord, error) {
	switch {
	case kind == "ref" && wl == wSuite:
		return suiteJob(seed, tiny, false, true)
	case kind == "ref" && wl == wRemote:
		return campaignJob(wl, remoteSpec(seed, tiny), "", false)
	case kind == "ref":
		return campaignJob(wl, gridSpec(seed, tiny), "", false)
	case kind != "job":
		return nil, fmt.Errorf("unknown child kind %q", kind)
	case wl == wSuite:
		return suiteJob(seed, tiny, traced, false)
	case wl == wRemote:
		return remoteJob(remoteSpec(seed, tiny), traced)
	}
	return campaignJob(wl, gridSpec(seed, tiny), store, traced)
}

// jobTimer brackets the timed part of a job: from the first run issued
// to the output bytes complete. Untraced it records the allocation
// delta; traced it records a CPU profile and the time spent inside
// calls the benchmark times itself.
type jobTimer struct {
	rec    *jobRecord
	traced bool
	start  time.Time
	timed  time.Duration
	prof   bytes.Buffer
	mem    runtime.MemStats
}

func (t *jobTimer) begin() error {
	if t.traced {
		// The default 100 Hz: faster rates exceed the kernel tick on
		// small hosts and silently lose samples. The parent pools the
		// samples of every traced job of a run.
		if err := pprof.StartCPUProfile(&t.prof); err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
	} else {
		runtime.ReadMemStats(&t.mem)
	}
	t.start = time.Now()
	t.rec.FirstRun = t.start.UnixNano()
	return nil
}

// call runs fn as one timed public call. In a traced job its profile
// samples carry a label, so coverage counts them once.
func (t *jobTimer) call(fn func()) time.Duration {
	start := time.Now()
	if t.traced {
		pprof.Do(context.Background(), pprof.Labels(timedLabel, "1"), func(context.Context) { fn() })
	} else {
		fn()
	}
	d := time.Since(start)
	t.timed += d
	return d
}

// end closes the timed window; rec.Runs must be set.
func (t *jobTimer) end() error {
	wall := time.Since(t.start)
	t.rec.WallS = wall.Seconds()
	if !t.traced {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		t.rec.Layer["runtime.alloc_bytes_per_run"] = float64(m.TotalAlloc-t.mem.TotalAlloc) / t.rec.Runs
		t.rec.Layer["runtime.allocs_per_run"] = float64(m.Mallocs-t.mem.Mallocs) / t.rec.Runs
		t.rec.Layer["runtime.gc_cycles"] = float64(m.NumGC - t.mem.NumGC)
		return nil
	}
	pprof.StopCPUProfile()
	cpu, unlabelled, err := attribute(t.prof.Bytes())
	if err != nil {
		return err
	}
	t.rec.CPU = cpu
	t.rec.Layer["trace.coverage"] = (t.timed.Seconds() + unlabelled) / wall.Seconds()
	return nil
}

func digest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// suiteJob is `emptcpsim -j 1 all`: every experiment in paper order,
// rendered as text and as CSV without the wall-time lines. plain turns
// the run cache, fork and lockstep off for the reference run.
func suiteJob(seed int64, tiny, traced, plain bool) (*jobRecord, error) {
	cfg := exp.Config{BaseSeed: seed, Quick: tiny, Jobs: 1, Device: energy.GalaxyS3()}
	if plain {
		cfg.NoFork, cfg.NoLockstep = true, true
	} else {
		cfg.Cache = scenario.NewRunCache()
	}
	es := exp.All()
	rec := newRecord()
	t := &jobTimer{rec: rec, traced: traced}
	var text, csv strings.Builder
	if err := t.begin(); err != nil {
		return nil, err
	}
	for _, e := range es {
		hdr := fmt.Sprintf("=== %s — %s\npaper: %s\n\n", e.ID, e.Title, e.Paper)
		var out *exp.Output
		d := t.call(func() { out = e.Run(cfg) })
		rec.Layer["exp.wall_ms."+e.ID] = ms(d)
		text.WriteString(hdr + out.String() + "\n")
		csv.WriteString(hdr + out.CSV() + "\n")
	}
	rec.Runs = float64(len(es))
	if err := t.end(); err != nil {
		return nil, err
	}
	rec.Digest = digest(text.String(), csv.String())
	if cfg.Cache != nil {
		hits, misses := cfg.Cache.Stats()
		rec.Counts["runcache.cache_hits"] = float64(hits)
		rec.Counts["runcache.cache_misses"] = float64(misses)
	}
	processCounts(rec)
	return rec, nil
}

// processCounts records the process-wide fork and lockstep counters;
// each job runs in a fresh process, so they belong to the job alone.
func processCounts(rec *jobRecord) {
	trees, forks := scenario.ForkStats()
	lanes, peels := lockstep.Stats()
	rec.Layer["scenario.fork_trees"] = float64(trees)
	rec.Counts["scenario.fork_runs"] = float64(forks)
	rec.Counts["lockstep.lane_runs"] = float64(lanes)
	rec.Counts["lockstep.peels"] = float64(peels)
}

// campaignJob runs a campaign locally at -j 1 through campaign.New and
// Execute, with a persistent store in storeDir (none when empty).
func campaignJob(wl string, spec campaign.Spec, storeDir string, traced bool) (*jobRecord, error) {
	rec := newRecord()
	var store *runcache.Store
	if storeDir != "" {
		start := time.Now()
		s, err := runcache.OpenStore(storeDir)
		if err != nil {
			return nil, err
		}
		rec.Layer["runcache.store_open_ms"] = ms(time.Since(start))
		store = s
	}
	start := time.Now()
	job, err := campaign.New(spec, campaign.Options{Disk: store, Jobs: 1})
	if err != nil {
		store.Close()
		return nil, err
	}
	rec.Layer["campaign.new_ms"] = ms(time.Since(start))

	t := &jobTimer{rec: rec, traced: traced}
	if err := t.begin(); err != nil {
		store.Close()
		return nil, err
	}
	err = job.Execute()
	out, ok := job.Result()
	rec.Runs = float64(spec.TotalRuns())
	if terr := t.end(); err == nil {
		err = terr
	}
	if err == nil && !ok {
		err = fmt.Errorf("campaign ended %s without a result", job.Progress().Status)
	}
	if err != nil {
		store.Close()
		return nil, err
	}
	rec.Digest = digest(string(out))
	p := job.Progress()
	rec.Counts["campaign.simulated"] = float64(p.Simulated)
	rec.Counts["campaign.disk_hits"] = float64(p.DiskHits)
	processCounts(rec)
	if store != nil {
		gets, hits, puts := store.DiskStats()
		rec.Counts["runcache.store_gets"] = float64(gets)
		rec.Counts["runcache.store_hits"] = float64(hits)
		rec.Counts["runcache.store_puts"] = float64(puts)
		if gets > 0 {
			rec.Layer["runcache.store_hit_ratio"] = float64(hits) / float64(gets)
		}
	}
	if traced && store != nil {
		if wl == wCold {
			err = coldLayers(rec, spec, store, storeDir)
		} else {
			err = warmLayers(rec, spec, store)
		}
	}
	return rec, errors.Join(err, store.Close())
}
