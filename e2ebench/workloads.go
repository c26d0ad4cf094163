package main

import (
	"repro/internal/campaign"
	"repro/internal/energy"
	"repro/internal/exp"
	"repro/internal/scenario"
	"repro/internal/units"
	"repro/internal/workload"
)

// The four workloads. README.md records why each exists.
const (
	wSuite  = "suite"
	wCold   = "campaign_cold"
	wWarm   = "campaign_warm"
	wRemote = "campaign_remote"
)

var workloadNames = []string{wSuite, wCold, wWarm, wRemote}

// Spec sizes. population is the seeds per (category, location) cell of
// the wild grid: 200 gives 14,400 runs, a cold job of about 1.5 s on a
// 2-vCPU host, so a 12 s measurement holds several fresh-process jobs.
// The tiny sizes serve -selftest.
const (
	population      = 200
	tinyPopulation  = 2
	remoteShardSize = 32
	tinyShardSize   = 4
)

// refKind names the output a workload's bytes must equal: the suite
// transcript, the full wild grid's aggregates (cold and warm), or the
// 0.25 MB slice the distributed workload runs.
func refKind(w string) string {
	switch w {
	case wSuite:
		return "suite"
	case wRemote:
		return "remote"
	}
	return "grid"
}

// gridSpec is the paper's wild grid (§5.1): WiFi × LTE quality, three
// server locations, both paper sizes, the whisker-figure protocol trio.
func gridSpec(seed int64, tiny bool) campaign.Spec {
	pop := population
	if tiny {
		pop = tinyPopulation
	}
	s := exp.WildSpec("s3", 0.25, pop, 1)
	s.SizesMB = []float64{0.25, 16}
	s.Seeds.Base = seed
	return s
}

// remoteSpec is the grid's 0.25 MB slice in small shards, so lease and
// shard-post round trips are a visible share of the job.
func remoteSpec(seed int64, tiny bool) campaign.Spec {
	s := gridSpec(seed, tiny)
	s.SizesMB = []float64{0.25}
	s.ShardSize = remoteShardSize
	if tiny {
		s.ShardSize = tinyShardSize
	}
	return s
}

// gridRun is one run of a campaign grid, rebuilt from public
// constructors so the benchmark can time each layer on the job's own
// inputs.
type gridRun struct {
	sc    scenario.Scenario
	proto scenario.Protocol
	seed  int64
}

var (
	qualities = map[string]scenario.Quality{"good": scenario.Good, "bad": scenario.Bad}
	locations = map[string]scenario.ServerLoc{"wdc": scenario.WDC, "ams": scenario.AMS, "sng": scenario.SNG}
	protocols = map[string]scenario.Protocol{"mptcp": scenario.MPTCP, "emptcp": scenario.EMPTCP, "tcp-wifi": scenario.TCPWiFi}
)

// gridBlocks enumerates a spec's runs in the campaign's order
// (replicate, wifi, lte, size, protocol, location, seed), one slice per
// same-scenario seed block. The specs here use only the s3 device and
// the keys above.
func gridBlocks(spec campaign.Spec) [][]gridRun {
	dev := energy.GalaxyS3()
	var blocks [][]gridRun
	for range max(spec.Replicate, 1) {
		for _, wq := range spec.WiFi {
			for _, lq := range spec.LTE {
				for _, mb := range spec.SizesMB {
					work := workload.FileDownload{Size: units.ByteSize(mb * float64(units.MB))}
					for _, p := range spec.Protocols {
						for _, loc := range spec.Locations {
							sc := scenario.Wild(dev, qualities[wq], qualities[lq], locations[loc], work)
							blk := make([]gridRun, spec.Seeds.Count)
							for i := range blk {
								blk[i] = gridRun{sc, protocols[p], spec.Seeds.Base + int64(i)}
							}
							blocks = append(blocks, blk)
						}
					}
				}
			}
		}
	}
	return blocks
}

// metric is one declared metric; BENCHMARK.json must list the same
// names (the self-test checks it).
type metric struct {
	name, unit string
}

var endToEnd = []metric{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"runs_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// cpuLayers are the layers CPU-profile samples are attributed to.
var cpuLayers = []string{"exp", "campaign", "runcache", "scenario", "lockstep", "simrng", "sim",
	"tcp", "mptcp", "ptcp", "energy", "core", "link", "stats", "report", "runtime", "other"}

// perLayer lists every per-layer metric. A metric a workload does not
// exercise reads 0 on it; README.md names the workload each one is for.
func perLayer() []metric {
	var ms []metric
	for _, id := range exp.IDs() {
		ms = append(ms, metric{"exp.wall_ms." + id, "ms"})
	}
	ms = append(ms,
		metric{"runcache.cache_hits", "count"},
		metric{"runcache.cache_misses", "count"},
		metric{"scenario.fork_trees", "count"},
		metric{"scenario.fork_runs", "count"},
		metric{"lockstep.lane_runs", "count"},
		metric{"lockstep.peels", "count"},
		metric{"scenario.cache_key_us.p50", "us"},
		metric{"scenario.cache_key_us.p90", "us"},
		metric{"simrng.seed_us.p50", "us"},
		metric{"scenario.run_us.p50", "us"},
		metric{"scenario.run_us.p90", "us"},
		metric{"lockstep.run_us_per_lane", "us"},
		metric{"runcache.store_open_ms", "ms"},
		metric{"runcache.store_get_us.p50", "us"},
		metric{"runcache.store_get_us.p90", "us"},
		metric{"runcache.store_hit_ratio", "ratio"},
		metric{"runcache.store_put_us.p50", "us"},
		metric{"runcache.store_put_us.p90", "us"},
		metric{"runcache.store_bytes", "B"},
		metric{"runcache.store_gets", "count"},
		metric{"runcache.store_hits", "count"},
		metric{"runcache.store_puts", "count"},
		metric{"campaign.new_ms", "ms"},
		metric{"campaign.simulated", "count"},
		metric{"campaign.disk_hits", "count"},
		metric{"campaign.unattributed_s", "s"},
		metric{"campaign.http.lease_ms.p50", "ms"},
		metric{"campaign.http.lease_ms.p90", "ms"},
		metric{"campaign.http.shard_post_ms.p50", "ms"},
		metric{"campaign.http.shard_post_ms.p90", "ms"},
		metric{"campaign.http.shard_bytes", "B"},
		metric{"campaign.http.requests", "count"},
		metric{"campaign.http.non2xx", "count"},
		metric{"campaign.worker.shards_done", "count"},
		metric{"campaign.worker.duplicates", "count"},
		metric{"campaign.worker.leases_lost", "count"},
		metric{"runtime.alloc_bytes_per_run", "B"},
		metric{"runtime.allocs_per_run", "count"},
		metric{"runtime.gc_cycles", "count"},
	)
	for _, l := range cpuLayers {
		ms = append(ms, metric{"cpu." + l, "%"})
	}
	return append(ms,
		metric{"trace.overhead_ratio", "ratio"},
		metric{"trace.coverage", "ratio"},
	)
}

// exactCounts are the counters that must repeat exactly across jobs of
// one run; a difference is nondeterminism and fails the job.
// Allocation counts are not among them: sync.Pool makes them depend on
// GC timing.
var exactCounts = []string{
	"campaign.simulated", "campaign.disk_hits",
	"runcache.store_gets", "runcache.store_hits", "runcache.store_puts",
	"lockstep.lane_runs", "lockstep.peels",
	"runcache.cache_hits", "runcache.cache_misses",
	"scenario.fork_runs",
}
