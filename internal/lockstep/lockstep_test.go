package lockstep

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/energy"
	"repro/internal/link"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simrng"
	"repro/internal/units"
	"repro/internal/workload"
)

func s3() *energy.DeviceProfile { return energy.GalaxyS3() }

// normNaN replaces NaN completion times (incomplete runs) so that
// reflect.DeepEqual — under which NaN != NaN — can compare results.
func normNaN(r *scenario.Result) {
	if math.IsNaN(r.CompletionTime) {
		r.CompletionTime = -1
	}
}

var lanedProtos = []scenario.Protocol{scenario.TCPWiFi, scenario.TCPLTE, scenario.MPTCP}

// checkEquivalence runs the seeds batched and requires each per-seed
// Result to be bit-identical to a sequential scenario.Run.
func checkEquivalence(t *testing.T, sc scenario.Scenario, proto scenario.Protocol, seeds []int64) {
	t.Helper()
	opt := scenario.Opts{}
	if !Eligible(sc, proto, opt) {
		t.Fatalf("%v/%v unexpectedly ineligible for lockstep", sc.Name, proto)
	}
	lanes0, _ := Stats()
	got := Run(sc, proto, seeds, opt)
	if lanes1, _ := Stats(); lanes1 == lanes0 {
		t.Fatalf("%v/%v: Run executed no lockstep lanes", sc.Name, proto)
	}
	for i, seed := range seeds {
		want := scenario.Run(sc, proto, scenario.Opts{Seed: seed})
		g := got[i]
		normNaN(&want)
		normNaN(&g)
		if !reflect.DeepEqual(want, g) {
			t.Errorf("%v/%v seed %d: lockstep result differs\nscalar:   %+v\nlockstep: %+v",
				sc.Name, proto, seed, want, g)
		}
	}
}

// TestLockstepEquivalence pins the deterministic envelope corners:
// lab and wild links, all three laned protocols, download/upload/bulk
// workloads, fast and scarce-data regimes, and horizon truncation.
func TestLockstepEquivalence(t *testing.T) {
	seeds := []int64{0, 1, 2, 3, 4, 5, 6}
	bulk := func(sc scenario.Scenario) scenario.Scenario {
		sc.Work = workload.Bulk{}
		sc.Horizon = 30
		return sc
	}
	scs := []scenario.Scenario{
		scenario.StaticLab(s3(), 8, 6, workload.FileDownload{Size: 4 * units.MB}),
		scenario.StaticLab(s3(), 0.5, 4.5, workload.FileDownload{Size: 2 * units.MB}),
		scenario.StaticLab(s3(), 12, 0.8, workload.FileUpload{Size: 1 * units.MB}),
		scenario.StaticLab(s3(), 2, 2, workload.FileDownload{Size: 16 * units.KB}),
		bulk(scenario.StaticLab(s3(), 8, 6, nil)),
		scenario.Wild(s3(), scenario.Good, scenario.Good, scenario.WDC, workload.FileDownload{Size: 4 * units.MB}),
		scenario.Wild(s3(), scenario.Bad, scenario.Good, scenario.SNG, workload.FileDownload{Size: 16 * units.MB}),
		scenario.Wild(s3(), scenario.Good, scenario.Bad, scenario.AMS, workload.FileUpload{Size: 1 * units.MB}),
	}
	// A horizon so short the transfer cannot complete: Elapsed pins to it.
	trunc := scenario.StaticLab(s3(), 0.5, 0.5, workload.FileDownload{Size: 64 * units.MB})
	trunc.Horizon = 5
	scs = append(scs, trunc)

	for _, sc := range scs {
		for _, proto := range lanedProtos {
			checkEquivalence(t, sc, proto, seeds)
		}
	}
}

// FuzzLockstepEquivalence is the bit-identity bar from the issue: any
// envelope scenario, any seed set, batched results must match sequential
// scalar runs exactly.
func FuzzLockstepEquivalence(f *testing.F) {
	f.Add(uint8(0), int64(0), uint8(80), uint8(60), uint16(4096), false, false)
	f.Add(uint8(1), int64(3), uint8(5), uint8(45), uint16(2048), false, true)
	f.Add(uint8(2), int64(7), uint8(40), uint8(45), uint16(256), true, false)
	f.Add(uint8(2), int64(11), uint8(120), uint8(8), uint16(64), false, true)
	f.Add(uint8(0), int64(13), uint8(1), uint8(20), uint16(8192), true, true)
	f.Fuzz(func(t *testing.T, protoSel uint8, seed int64, wifiDMbps, lteDMbps uint8, sizeKB uint16, upload, wild bool) {
		proto := lanedProtos[int(protoSel)%len(lanedProtos)]
		size := units.ByteSize(sizeKB%8192+16) * units.KB
		var work workload.Workload = workload.FileDownload{Size: size}
		if upload {
			work = workload.FileUpload{Size: size}
		}
		var sc scenario.Scenario
		if wild {
			q := func(d uint8) scenario.Quality {
				if d%2 == 0 {
					return scenario.Good
				}
				return scenario.Bad
			}
			loc := scenario.AllServerLocs[int(wifiDMbps)%len(scenario.AllServerLocs)]
			sc = scenario.Wild(s3(), q(wifiDMbps), q(lteDMbps), loc, work)
		} else {
			wifi := float64(wifiDMbps%200)/10 + 0.2 // 0.2 .. 20.1 Mbps
			lte := float64(lteDMbps%100)/10 + 0.5   // 0.5 .. 10.4 Mbps
			sc = scenario.StaticLab(s3(), wifi, lte, work)
		}
		seeds := make([]int64, 5)
		for i := range seeds {
			seeds[i] = seed + int64(i)*7919
		}
		checkEquivalence(t, sc, proto, seeds)
	})
}

// TestLockstepPeel drives the lane-divergence path: a zero-rate WiFi lab
// link is outside the envelope (the scalar dead-path timeout round), so
// every lane must peel to scenario.Run and still return scalar-identical
// results.
func TestLockstepPeel(t *testing.T) {
	sc := scenario.StaticLab(s3(), 0, 4.5, workload.FileDownload{Size: 1 * units.MB})
	seeds := []int64{0, 1, 2}
	for _, proto := range []scenario.Protocol{scenario.TCPWiFi, scenario.MPTCP} {
		if !Eligible(sc, proto, scenario.Opts{}) {
			t.Fatalf("%v statically ineligible; peel is a dynamic decision", proto)
		}
		_, peels0 := Stats()
		got, peels := RunAppend(nil, sc, proto, seeds, scenario.Opts{})
		if peels != len(seeds) {
			t.Fatalf("%v: RunAppend reported %d peels, want %d", proto, peels, len(seeds))
		}
		if _, peels1 := Stats(); peels1-peels0 != int64(len(seeds)) {
			t.Fatalf("%v: %d peels, want %d", proto, peels1-peels0, len(seeds))
		}
		for i, seed := range seeds {
			want := scenario.Run(sc, proto, scenario.Opts{Seed: seed})
			g := got[i]
			normNaN(&want)
			normNaN(&g)
			if !reflect.DeepEqual(want, g) {
				t.Errorf("%v seed %d: peeled result differs\nscalar: %+v\npeeled: %+v", proto, seed, want, g)
			}
		}
	}
}

// TestLockstepEligibility pins the static envelope boundary.
func TestLockstepEligibility(t *testing.T) {
	dl := scenario.StaticLab(s3(), 8, 6, workload.FileDownload{Size: units.MB})
	cases := []struct {
		name  string
		sc    scenario.Scenario
		proto scenario.Protocol
		opt   scenario.Opts
		want  bool
	}{
		{"download", dl, scenario.TCPWiFi, scenario.Opts{}, true},
		{"mptcp", dl, scenario.MPTCP, scenario.Opts{}, true},
		{"bulk", func() scenario.Scenario { sc := dl; sc.Work = workload.Bulk{}; return sc }(), scenario.TCPLTE, scenario.Opts{}, true},
		{"emptcp", dl, scenario.EMPTCP, scenario.Opts{}, false},
		{"trace", dl, scenario.TCPWiFi, scenario.Opts{Trace: true}, false},
		{"zero size", func() scenario.Scenario { sc := dl; sc.Work = workload.FileDownload{}; return sc }(), scenario.TCPWiFi, scenario.Opts{}, false},
		{"web workload", scenario.WebBrowsing(s3()), scenario.TCPWiFi, scenario.Opts{}, false},
		{"non-library", scenario.Scenario{
			Name:    "hand-built",
			Device:  s3(),
			WiFi:    func(eng *sim.Engine, src *simrng.Source) link.Process { return link.NewConstant(units.MbpsRate(8)) },
			LTE:     func(eng *sim.Engine, src *simrng.Source) link.Process { return link.NewConstant(units.MbpsRate(6)) },
			WiFiRTT: 0.03,
			LTERTT:  0.07,
			Work:    workload.FileDownload{Size: units.MB},
		}, scenario.TCPWiFi, scenario.Opts{}, false},
	}
	for _, c := range cases {
		if got := Eligible(c.sc, c.proto, c.opt); got != c.want {
			t.Errorf("%s: Eligible = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestLockstepSteadyStateAllocs is the CI alloc guard: once a batch's
// striped state is warm, re-arming the lanes and driving them to
// completion allocates nothing. The link probe is excluded — building a
// link.Process is a per-batch setup cost, not lane advance.
func TestLockstepSteadyStateAllocs(t *testing.T) {
	sc := scenario.StaticLab(s3(), 8, 6, workload.FileDownload{Size: 2 * units.MB})
	const k = 16
	seeds := make([]int64, k)
	for i := range seeds {
		seeds[i] = int64(i)
	}
	b := batchPool.Get().(*batch)
	defer batchPool.Put(b)
	b.prepare(sc, scenario.MPTCP, k)
	for i := range b.lanes {
		if !b.setupLane(&b.lanes[i], i, seeds[i]) {
			t.Fatalf("lane %d peeled in an envelope scenario", i)
		}
	}
	b.drive() // warm: seed-state cache, accountant buffers

	res := make([]scenario.Result, k)
	allocs := testing.AllocsPerRun(20, func() {
		b.vec.Resize(b.nSub, b.k)
		for i := range b.lanes {
			l := &b.lanes[i]
			acct, rate, wifiRate := l.acct, l.rate, l.wifiRate
			*l = lane{acct: acct, rate: rate, wifiRate: wifiRate, seed: seeds[i]}
			l.complete = math.NaN()
			b.rng.Seed(b.rootIdx(i), seeds[i])
			b.armLane(l, i)
		}
		b.drive()
		for i := range b.lanes {
			res[i] = b.collect(&b.lanes[i])
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state lane advance allocates: %.1f allocs/op", allocs)
	}
	if !res[0].Completed {
		t.Fatal("steady-state lanes did not complete the transfer")
	}
}
