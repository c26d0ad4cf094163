// Benchmarks regenerating every table and figure in the paper's
// evaluation (one per experiment id, DESIGN.md §3), plus ablation benches
// for the design decisions called out in DESIGN.md §4. Each bench runs the
// experiment in Quick mode and reports its headline metrics through
// b.ReportMetric, so `go test -bench=. -benchmem` both exercises and
// summarizes the whole reproduction.
package emptcp_test

import (
	"testing"

	emptcp "repro"
	"repro/internal/eib"
	"repro/internal/energy"
	"repro/internal/exp"
	"repro/internal/link"
	"repro/internal/mptcp"
	"repro/internal/ptcp"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simrng"
	"repro/internal/tcp"
	"repro/internal/units"
	"repro/internal/workload"
)

// mptcpNew builds a default-option connection for the ablation benches.
func mptcpNew(eng *sim.Engine, src *simrng.Source) *mptcp.Connection {
	return mptcp.New(eng, src, mptcp.DefaultOptions())
}

// benchExperiment runs one registered experiment per iteration and
// reports the named metrics.
func benchExperiment(b *testing.B, id string, metrics ...string) {
	b.Helper()
	e := exp.ByID(id)
	if e == nil {
		b.Fatalf("experiment %q not registered", id)
	}
	var out *exp.Output
	for i := 0; i < b.N; i++ {
		out = e.Run(exp.Config{Quick: true})
	}
	for _, m := range metrics {
		if v, ok := out.Metrics[m]; ok {
			b.ReportMetric(v, m)
		}
	}
}

func BenchmarkFig1FixedOverheads(b *testing.B) {
	benchExperiment(b, "fig1", "s3_lte_J", "n5_lte_J")
}

func BenchmarkTable1Devices(b *testing.B) {
	benchExperiment(b, "table1")
}

func BenchmarkFig3Heatmap(b *testing.B) {
	benchExperiment(b, "fig3", "mptcp_best_fraction")
}

func BenchmarkTable2EIB(b *testing.B) {
	benchExperiment(b, "table2", "t2_err_pct_lte1.0")
}

func BenchmarkFig4Regions(b *testing.B) {
	benchExperiment(b, "fig4", "area_1MB", "area_16MB")
}

func BenchmarkFig5StaticGoodWiFi(b *testing.B) {
	benchExperiment(b, "fig5", "emptcp_energy_vs_mptcp_pct", "emptcp_energy_vs_tcpwifi_pct")
}

func BenchmarkFig6StaticBadWiFi(b *testing.B) {
	benchExperiment(b, "fig6", "emptcp_energy_vs_mptcp_pct", "emptcp_time_vs_tcpwifi_pct")
}

func BenchmarkFig7RandomBWTrace(b *testing.B) {
	benchExperiment(b, "fig7", "energy_eMPTCP", "energy_MPTCP")
}

func BenchmarkFig8RandomBW(b *testing.B) {
	benchExperiment(b, "fig8", "emptcp_energy_vs_mptcp_pct", "emptcp_time_vs_mptcp_pct")
}

func BenchmarkFig9BackgroundTrace(b *testing.B) {
	benchExperiment(b, "fig9", "lte_active_frac_eMPTCP", "lte_active_frac_MPTCP")
}

func BenchmarkFig10Background(b *testing.B) {
	benchExperiment(b, "fig10", "emptcp_energy_pct_n2_loff0.025")
}

func BenchmarkFig12MobilityTrace(b *testing.B) {
	benchExperiment(b, "fig12", "emptcp_switches")
}

func BenchmarkFig13Mobility(b *testing.B) {
	benchExperiment(b, "fig13", "emptcp_jpb_vs_mptcp_pct", "emptcp_down_vs_mptcp_pct")
}

func BenchmarkSec46Baselines(b *testing.B) {
	benchExperiment(b, "sec46", "mdp_always_wifi_only", "emptcp_down_vs_wififirst_pct")
}

func BenchmarkFig14Categorise(b *testing.B) {
	benchExperiment(b, "fig14", "category_agreement_frac")
}

func BenchmarkFig15SmallFiles(b *testing.B) {
	benchExperiment(b, "fig15", "fig15_emptcp_energy_pct_gg", "fig15_emptcp_energy_pct_bb")
}

func BenchmarkFig16LargeFiles(b *testing.B) {
	benchExperiment(b, "fig16", "fig16_emptcp_energy_pct_gg", "fig16_emptcp_energy_pct_bb")
}

func BenchmarkFig17WebBrowsing(b *testing.B) {
	benchExperiment(b, "fig17", "mptcp_energy_vs_emptcp_pct", "emptcp_latency_vs_mptcp_pct")
}

// --- Ablation benches (DESIGN.md §4) ---

// BenchmarkAblationAdditiveModel shows why counting the device base once
// matters: a naive additive model (base charged per radio) collapses the
// Figure 3 V-region to near nothing.
func BenchmarkAblationAdditiveModel(b *testing.B) {
	calibrated := energy.GalaxyS3()
	additive := energy.GalaxyS3()
	// Fold the device base into each radio: using both now double-pays it.
	additive.Radios[energy.WiFi].Base += additive.DeviceBase
	additive.Radios[energy.LTE].Base += additive.DeviceBase
	additive.DeviceBase = 0
	var fracCal, fracAdd float64
	for i := 0; i < b.N; i++ {
		fracCal = eib.RelativeEfficiencyHeatmap(calibrated, units.MbpsRate(10), units.MbpsRate(10), 24).MPTCPBestFraction()
		fracAdd = eib.RelativeEfficiencyHeatmap(additive, units.MbpsRate(10), units.MbpsRate(10), 24).MPTCPBestFraction()
	}
	b.ReportMetric(fracCal*100, "Vregion_calibrated_pct")
	b.ReportMetric(fracAdd*100, "Vregion_additive_pct")
}

// BenchmarkAblationHysteresis sweeps the §3.4 safety factor and counts
// path-set switches when the predicted WiFi throughput jitters ±5% around
// the WiFi-only threshold — measurement noise on a steady link. Without
// the safety factor the decision flaps on every sample; with the paper's
// 10% it never moves. (In the full closed loop additional damping emerges
// from prediction smoothing and the decay of the suspended interface's
// estimate; this bench isolates the decision rule itself.)
func BenchmarkAblationHysteresis(b *testing.B) {
	lte := units.MbpsRate(9)
	run := func(safety float64) int {
		cfgEIB := eib.DefaultConfig()
		cfgEIB.SafetyFactor = safety
		table := eib.Generate(energy.GalaxyS3(), cfgEIB)
		_, t2 := table.Thresholds(lte)
		current := energy.Both
		switches := 0
		for i := 0; i < 200; i++ {
			f := 0.95
			if i%2 == 1 {
				f = 1.05
			}
			next := table.Decide(current, units.BitRate(float64(t2)*f), lte)
			if next != current {
				switches++
				current = next
			}
		}
		return switches
	}
	var s0, s10, s30 int
	for i := 0; i < b.N; i++ {
		s0, s10, s30 = run(0), run(0.10), run(0.30)
	}
	b.ReportMetric(float64(s0), "switches_safety0")
	b.ReportMetric(float64(s10), "switches_safety10pct")
	b.ReportMetric(float64(s30), "switches_safety30pct")
}

// BenchmarkAblationKappa sweeps the delayed-establishment byte threshold
// on a small-file workload: with κ=0 every 256 KB download pays the LTE
// fixed cost; with the paper's 1 MB none do.
func BenchmarkAblationKappa(b *testing.B) {
	run := func(kappa units.ByteSize) float64 {
		sc := scenario.Wild(energy.GalaxyS3(), scenario.Good, scenario.Good, scenario.WDC,
			workload.FileDownload{Size: 256 * units.KB})
		// Scenario runs eMPTCP with the default core config; emulate the
		// κ sweep by comparing against MPTCP (κ=0 is standard MPTCP
		// behaviour for establishment).
		p := scenario.EMPTCP
		if kappa == 0 {
			p = scenario.MPTCP
		}
		total := 0.0
		for seed := int64(0); seed < 3; seed++ {
			total += scenario.Run(sc, p, scenario.Opts{Seed: seed}).Energy.Joules()
		}
		return total / 3
	}
	var eKappa0, eKappa1MB float64
	for i := 0; i < b.N; i++ {
		eKappa0, eKappa1MB = run(0), run(units.MB)
	}
	b.ReportMetric(eKappa0, "energy_J_kappa0")
	b.ReportMetric(eKappa1MB, "energy_J_kappa1MB")
}

// BenchmarkAblationFastReuse compares resumed-subflow behaviour with and
// without eMPTCP's §3.6 modification (no RFC 2861 cwnd reset).
func BenchmarkAblationFastReuse(b *testing.B) {
	run := func(disableReset bool) units.ByteSize {
		eng := sim.New()
		src := simrng.New(11)
		// A long-RTT path (an overseas server, §5's Singapore deployment)
		// makes the slow-start restart visibly expensive.
		path := &tcp.Path{Name: "lte", Capacity: link.NewConstant(units.MbpsRate(9)), BaseRTT: 0.28}
		cfg := tcp.DefaultConfig()
		cfg.DisableIdleCwndReset = disableReset
		conn := mptcpNew(eng, src)
		sf := conn.AddSubflow("lte", energy.LTE, path, &cfg, 0)
		conn.Download(units.GB, nil)
		eng.RunUntil(10)
		sf.Suspend()
		eng.RunUntil(40) // idle well past the RTO
		sf.Resume()
		before := sf.BytesDelivered
		eng.RunUntil(42) // two seconds after resume
		return sf.BytesDelivered - before
	}
	var slow, fast units.ByteSize
	for i := 0; i < b.N; i++ {
		slow, fast = run(false), run(true)
	}
	b.ReportMetric(slow.Megabytes(), "resume2s_MB_standard")
	b.ReportMetric(fast.Megabytes(), "resume2s_MB_fastreuse")
}

// BenchmarkRunThroughput measures raw simulator speed: simulated seconds
// per wall second for a full eMPTCP scenario run.
func BenchmarkRunThroughput(b *testing.B) {
	sc := emptcp.RandomBandwidth(emptcp.GalaxyS3(), emptcp.FileDownload{Size: 64 * emptcp.MB})
	var elapsed float64
	for i := 0; i < b.N; i++ {
		r := emptcp.Run(sc, emptcp.EMPTCP, emptcp.Opts{Seed: int64(i)})
		elapsed += r.Elapsed
	}
	b.ReportMetric(elapsed/float64(b.N), "simsec/op")
}

func BenchmarkExtStreaming(b *testing.B) {
	benchExperiment(b, "ext-streaming", "emptcp_energy_vs_mptcp_pct")
}

func BenchmarkExtUpload(b *testing.B) {
	benchExperiment(b, "ext-upload", "upload_premium_pct_eMPTCP")
}

func BenchmarkExtDevices(b *testing.B) {
	benchExperiment(b, "ext-devices", "emptcp_energy_J_s3", "emptcp_energy_J_n5")
}

func BenchmarkExtPredictor(b *testing.B) {
	benchExperiment(b, "ext-predictor", "hw_over_lastvalue_mobili")
}

// BenchmarkAblationWeakSignal enables the optional weak-signal WiFi power
// model (disabled in the default profiles; EXPERIMENTS.md D1) and re-runs
// the Figure 8 comparison: with slow WiFi drawing extra power, waiting
// out bad phases on WiFi alone stops being energy-free and eMPTCP's
// energy moves below TCP-over-WiFi's, the paper's direction.
func BenchmarkAblationWeakSignal(b *testing.B) {
	run := func(enable bool) (emJ, twJ float64) {
		dev := energy.GalaxyS3()
		if enable {
			dev.Radios[energy.WiFi].WeakSignalNominal = units.MbpsRate(12)
			dev.Radios[energy.WiFi].WeakSignalPenalty = units.MilliwattPower(500)
		}
		sc := scenario.RandomBandwidth(dev, workload.FileDownload{Size: 64 * units.MB})
		for seed := int64(0); seed < 3; seed++ {
			em := scenario.Run(sc, scenario.EMPTCP, scenario.Opts{Seed: seed})
			tw := scenario.Run(sc, scenario.TCPWiFi, scenario.Opts{Seed: seed})
			emJ += em.Energy.Joules()
			twJ += tw.Energy.Joules()
		}
		return emJ / 3, twJ / 3
	}
	var offRatio, onRatio float64
	for i := 0; i < b.N; i++ {
		em0, tw0 := run(false)
		em1, tw1 := run(true)
		offRatio = em0 / tw0 * 100
		onRatio = em1 / tw1 * 100
	}
	b.ReportMetric(offRatio, "emptcp_vs_tcpwifi_pct_default")
	b.ReportMetric(onRatio, "emptcp_vs_tcpwifi_pct_weaksignal")
}

// BenchmarkAblationFluidVsPacket validates DESIGN.md §4.1: the fluid-round
// TCP model agrees with a packet-level SACK-Reno reference on completion
// time while being orders of magnitude cheaper to simulate.
func BenchmarkAblationFluidVsPacket(b *testing.B) {
	const mbps, rtt = 10.0, 0.05
	size := 16 * units.MB
	var fluidT, packetT float64
	var packetEvents int
	for i := 0; i < b.N; i++ {
		engP := sim.New()
		engP.Horizon = 600
		pres := ptcp.Run(engP, ptcp.DefaultConfig(), ptcp.Link{
			Rate: units.MbpsRate(mbps), OneWayDelay: rtt / 2, QueuePackets: 64,
		}, size)
		packetT = pres.FinishedAt
		packetEvents = pres.Packets

		engF := sim.New()
		engF.Horizon = 600
		src := simrng.New(1)
		path := &tcp.Path{Name: "x", Capacity: link.NewConstant(units.MbpsRate(mbps)), BaseRTT: rtt}
		conn := mptcpNew(engF, src)
		sf := conn.AddSubflow("f", energy.WiFi, path, nil, 0)
		done := 0.0
		conn.Download(size, func(at float64) { done = at; engF.Stop() })
		engF.Run()
		fluidT = done
		_ = sf
	}
	b.ReportMetric(fluidT, "fluid_s")
	b.ReportMetric(packetT, "packet_s")
	b.ReportMetric(float64(packetEvents), "packet_events")
}

func BenchmarkExtMultiAP(b *testing.B) {
	benchExperiment(b, "ext-multiap", "emptcp_lteJ_single", "emptcp_lteJ_multi")
}

func BenchmarkExt3G(b *testing.B) {
	benchExperiment(b, "ext-3g", "emptcp_energy_J_LTE", "emptcp_energy_J_3G")
}

func BenchmarkExtSweep(b *testing.B) {
	benchExperiment(b, "ext-sweep", "energy_J_kappa64KB", "energy_J_kappa1024KB")
}

func BenchmarkExtHOL(b *testing.B) {
	benchExperiment(b, "ext-hol", "completion_s_unlimited")
}

func BenchmarkExtBattery(b *testing.B) {
	benchExperiment(b, "ext-battery", "battery_pct_MPTCP", "battery_pct_eMPTCP")
}
