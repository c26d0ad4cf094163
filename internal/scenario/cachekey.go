package scenario

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/runcache"
)

// RunCache is read by no code: every run simulates once per call.
//
// Deprecated: ignored.
type RunCache struct{}

// NewRunCache returns a RunCache that nothing reads.
//
// Deprecated: ignored.
func NewRunCache() *RunCache { return &RunCache{} }

// Stats always returns (0, 0).
//
// Deprecated: ignored.
func (*RunCache) Stats() (hits, misses uint64) { return 0, 0 }

// CacheKey digests everything a run's outcome depends on: the
// scenario's construction (device profile contents, link signature,
// RTTs, horizon, workload, controller overrides, app power), the
// protocol, and the run options (seed, tracing). It reports ok=false
// when the run is not cache-eligible: the scenario was built outside
// this package's library (no link signature, so the link-builder funcs
// are opaque), or a Recorder observes the run's events in-line. The
// campaign engine keys its disk store with it.
//
// Everything digested is a value: DeviceProfile, core.Config, and the
// workload types are plain data structs, so %+v prints their full
// contents and two scenarios digest equal iff a run cannot tell them
// apart. The per-run RNG is rebuilt from Seed, so equal digests imply
// bit-identical results.
func CacheKey(sc Scenario, proto Protocol, opt Opts) (runcache.Key, bool) {
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
