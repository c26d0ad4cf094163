package scenario

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/runcache"
)

// RunCache memoizes Results across experiments. Sharing one cache
// between all the tables of a suite lets overlapping grids — shared
// baselines, repeated ablation arms — simulate each distinct run once.
type RunCache = runcache.Cache[Result]

// NewRunCache returns an empty run cache.
func NewRunCache() *RunCache { return runcache.New[Result]() }

// cacheKey digests everything a run's outcome depends on: the scenario's
// construction (device profile contents, link signature, RTTs, horizon,
// workload, controller overrides, app power), the protocol, and the
// run options (seed, tracing). It reports ok=false when the run is not
// cache-eligible: the scenario was built outside this package's library
// (no link signature, so the link-builder funcs are opaque), or a
// Recorder observes the run's events in-line.
//
// Everything digested is a value: DeviceProfile, core.Config, and the
// workload types are plain data structs, so %+v prints their full
// contents and two scenarios digest equal iff a run cannot tell them
// apart. The per-run RNG is rebuilt from Seed, so equal digests imply
// bit-identical results.
// CacheKey exposes the run-content digest to persistence layers outside
// this package — the campaign engine keys its disk cache with it, so an
// on-disk result is exactly as trustworthy as an in-process cached one:
// equal digests imply bit-identical results.
func CacheKey(sc Scenario, proto Protocol, opt Opts) (runcache.Key, bool) {
	return cacheKey(sc, proto, opt)
}

func cacheKey(sc Scenario, proto Protocol, opt Opts) (runcache.Key, bool) {
	if sc.linkSig == "" || opt.Recorder != nil {
		return runcache.Key{}, false
	}
	if opt.TraceStep <= 0 {
		opt.TraceStep = 1 // mirror runOne's default so both spellings share a key
	}
	h := sha256.New()
	fmt.Fprintf(h, "links|%s\n", sc.linkSig)
	fmt.Fprintf(h, "name|%s\n", sc.Name)
	fmt.Fprintf(h, "device|%+v\n", *sc.Device)
	fmt.Fprintf(h, "paths|%v|%v|%v|%v\n", sc.WiFiRTT, sc.LTERTT, sc.Horizon, sc.AppPower)
	if sc.CoreConfig != nil {
		fmt.Fprintf(h, "core|%+v\n", *sc.CoreConfig)
	}
	fmt.Fprintf(h, "work|%T|%+v\n", sc.Work, sc.Work)
	fmt.Fprintf(h, "run|%d|%d|%t|%v\n", proto, opt.Seed, opt.Trace, opt.TraceStep)
	var k runcache.Key
	h.Sum(k[:0])
	return k, true
}
