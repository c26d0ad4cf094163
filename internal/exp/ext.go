package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/forecast"
	"repro/internal/link"
	"repro/internal/mptcp"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simrng"
	"repro/internal/stats"
	"repro/internal/tcp"
	"repro/internal/units"
	"repro/internal/workload"
)

// Extension experiments beyond the paper's evaluation: the future-work
// items §7 names (video streaming, uploads), the second device the paper
// describes but mostly does not plot, and a validation of the §3.2
// predictor choice.
func init() {
	register(&Experiment{
		ID:    "ext-streaming",
		Title: "Extension: paced video streaming (§7 future work)",
		Paper: "\"we plan to examine more statistically varied application traffic such as video streaming\"",
		Run:   runExtStreaming,
	})
	register(&Experiment{
		ID:    "ext-upload",
		Title: "Extension: uploads (§7 future work) — uplink power is far higher per Mbps",
		Paper: "\"...as well as upload scenarios\"",
		Run:   runExtUpload,
	})
	register(&Experiment{
		ID:    "ext-devices",
		Title: "Extension: Galaxy S3 vs Nexus 5 across the static lab scenarios",
		Paper: "Table 1 lists both devices; Figure 1 shows the Nexus 5's lower fixed overheads",
		Run:   runExtDevices,
	})
	register(&Experiment{
		ID:    "ext-predictor",
		Title: "Extension: Holt-Winters vs naive predictors on simulated throughput traces (§3.2)",
		Paper: "\"Holt-Winters ... is known to be more accurate than formula-based predictors\"",
		Run:   runExtPredictor,
	})
}

func runExtStreaming(cfg Config) *Output {
	out := newOutput()
	w := workload.DefaultStreaming()
	if cfg.Quick {
		w.Chunks = 15
	}
	t := report.NewTable(
		fmt.Sprintf("Streaming: %d chunks × %v every %.0f s over 12 Mbps WiFi / 4.5 Mbps LTE",
			w.Chunks, w.ChunkSize, w.ChunkInterval),
		"Protocol", "Energy (J)", "Completion (s)", "LTE used")
	runs := cfg.runs(5)
	sc := scenario.StaticLab(cfg.device(), 12, 4.5, w)
	rs := replicateGrid(cfg, sc, labProtos, runs)
	ms := map[scenario.Protocol]*measures{}
	for pi, p := range labProtos {
		m := &measures{}
		lte := false
		for _, r := range rs[pi*runs : (pi+1)*runs] {
			m.energy = append(m.energy, r.Energy.Joules())
			m.time = append(m.time, r.CompletionTime)
			lte = lte || r.LTEUsed
		}
		ms[p] = m
		t.Addf(p.String(), stats.Mean(m.energy), stats.Mean(m.time), fmt.Sprintf("%v", lte))
	}
	out.Tables = append(out.Tables, t)
	out.Metrics["emptcp_energy_vs_mptcp_pct"] =
		stats.Ratio(stats.Mean(ms[scenario.EMPTCP].energy), stats.Mean(ms[scenario.MPTCP].energy))
	out.Notes = append(out.Notes,
		"the paced idle gaps keep MPTCP's LTE radio cycling through its tail for the whole stream; "+
			"eMPTCP's idle rule keeps the cellular subflow down and matches TCP over WiFi")
	return out
}

func runExtUpload(cfg Config) *Output {
	out := newOutput()
	size := units.ByteSize(cfg.scaleMB(16)) * units.MB
	t := report.NewTable(fmt.Sprintf("Upload of %v vs download, 6 Mbps WiFi / 4.5 Mbps LTE", size),
		"Protocol", "Upload energy (J)", "Download energy (J)", "Upload premium")
	protos := []scenario.Protocol{scenario.MPTCP, scenario.EMPTCP, scenario.TCPWiFi, scenario.TCPLTE}
	runs := cfg.runs(3)
	type upDown struct{ up, down float64 }
	rs := repeatRuns(cfg, len(protos)*runs, func(j int, opt scenario.Opts) upDown {
		p, i := protos[j/runs], j%runs
		opt.Seed = cfg.BaseSeed + int64(i)
		// Both directions of one index share the run's recorder slot.
		up := scenario.Run(scenario.StaticLab(cfg.device(), 6, 4.5, workload.FileUpload{Size: size}), p, opt)
		down := scenario.Run(scenario.StaticLab(cfg.device(), 6, 4.5, workload.FileDownload{Size: size}), p, opt)
		return upDown{up: up.Energy.Joules(), down: down.Energy.Joules()}
	})
	for pi, p := range protos {
		var upE, downE []float64
		for _, r := range rs[pi*runs : (pi+1)*runs] {
			upE = append(upE, r.up)
			downE = append(downE, r.down)
		}
		premium := stats.Ratio(stats.Mean(upE), stats.Mean(downE))
		t.Addf(p.String(), stats.Mean(upE), stats.Mean(downE), fmt.Sprintf("%.0f%%", premium))
		out.Metrics["upload_premium_pct_"+p.String()] = premium
	}
	out.Tables = append(out.Tables, t)
	out.Notes = append(out.Notes,
		"uplink costs more everywhere (α_up > α_down on every radio), and most on paths that use LTE")
	return out
}

func runExtDevices(cfg Config) *Output {
	out := newOutput()
	size := workload.FileDownload{Size: units.ByteSize(cfg.scaleMB(64)) * units.MB}
	t := report.NewTable("Galaxy S3 vs Nexus 5: 64 MB over 12 Mbps WiFi / 4.5 Mbps LTE",
		"Device", "Protocol", "Energy (J)", "Time (s)")
	for _, dev := range []*energy.DeviceProfile{energy.GalaxyS3(), energy.Nexus5()} {
		ms := collect(cfg, scenario.StaticLab(dev, 12, 4.5, size), labProtos, cfg.runs(3))
		for _, p := range labProtos {
			m := ms[p]
			t.Addf(dev.Name, p.String(), stats.Mean(m.energy), stats.Mean(m.time))
			if p == scenario.EMPTCP {
				key := "s3"
				if dev.Name != energy.GalaxyS3().Name {
					key = "n5"
				}
				out.Metrics["emptcp_energy_J_"+key] = stats.Mean(m.energy)
			}
		}
	}
	out.Tables = append(out.Tables, t)
	out.Notes = append(out.Notes,
		"the newer Nexus 5 consumes less for every protocol; the protocol ordering is device-independent")
	return out
}

func runExtPredictor(cfg Config) *Output {
	out := newOutput()
	t := report.NewTable("One-step-ahead MAE (Mbps) on simulated WiFi throughput traces",
		"Trace", "Holt-Winters", "EWMA(0.5)", "Last value")
	src := simrng.New(cfg.BaseSeed + 99)
	traces := map[string][]float64{}

	// On-off trace (the §4.3 process sampled at 0.2 s).
	eng := sim.New()
	mod := link.NewOnOffModulator(eng, src.Split(1), units.MbpsRate(12), units.MbpsRate(0.8), 40, false)
	var onoff []float64
	eng.Tick(0.2, func() {
		onoff = append(onoff, src.Jitter(mod.Rate().Mbit(), 0.1))
	})
	eng.Horizon = 400
	eng.Run()
	traces["on-off (§4.3)"] = onoff

	// Mobility trace: the Figure 11 route's distance-driven rate.
	eng2 := sim.New()
	mob := scenario.Mobility(cfg.device())
	proc := mob.WiFi(eng2, src.Split(2))
	var mobility []float64
	eng2.Tick(0.2, func() {
		mobility = append(mobility, src.Jitter(proc.Rate().Mbit(), 0.1))
	})
	eng2.Horizon = 250
	eng2.Run()
	traces["mobility (§4.5)"] = mobility

	order := []string{"on-off (§4.3)", "mobility (§4.5)"}
	for _, name := range order {
		series := traces[name]
		hw := forecast.MAE(forecast.NewHoltWinters(0.5, 0.2), series)
		ew := forecast.MAE(forecast.NewEWMA(0.5), series)
		lv := forecast.MAE(&forecast.LastValue{}, series)
		t.Addf(name, hw, ew, lv)
		out.Metrics["hw_over_lastvalue_"+name[:6]] = hw / lv
	}
	out.Tables = append(out.Tables, t)
	out.Notes = append(out.Notes,
		"Holt-Winters tracks the mobility trace's trends; on the square-wave on-off trace all "+
			"history predictors are comparable (no trend to exploit between jumps)")
	return out
}

func init() {
	register(&Experiment{
		ID:    "ext-3g",
		Title: "Extension: 3G as the cellular interface (Figure 1's other radio)",
		Paper: "the devices carry 3G radios with ~8 J fixed overheads vs LTE's ~12.5 J",
		Run:   runExt3G,
	})
}

func runExt3G(cfg Config) *Output {
	out := newOutput()
	size := workload.FileDownload{Size: units.ByteSize(cfg.scaleMB(64)) * units.MB}
	t := report.NewTable("Cellular = LTE vs 3G: random-bandwidth scenario",
		"Cellular", "Protocol", "Energy (J)", "Time (s)")
	devices := []struct {
		label string
		dev   *energy.DeviceProfile
	}{
		{"LTE", cfg.device()},
		{"3G", cfg.device().WithCellular3G()},
	}
	protos := []scenario.Protocol{scenario.MPTCP, scenario.EMPTCP}
	for _, dc := range devices {
		ms := collect(cfg, scenario.RandomBandwidth(dc.dev, size), protos, cfg.runs(3))
		for _, p := range protos {
			m := ms[p]
			t.Addf(dc.label, p.String(), stats.Mean(m.energy), stats.Mean(m.time))
			if p == scenario.EMPTCP {
				out.Metrics["emptcp_energy_J_"+dc.label] = stats.Mean(m.energy)
			}
		}
	}
	out.Tables = append(out.Tables, t)
	out.Notes = append(out.Notes,
		"3G's smaller fixed overheads cut the switching cost of suspension cycles, but its "+
			"higher per-Mbps power raises steady-state cost — the trade the paper's Figure 1 hints at")
	return out
}

func init() {
	register(&Experiment{
		ID:    "ext-multiap",
		Title: "Extension: multi-AP roaming on the mobility route (toward Croitoru et al., §6)",
		Paper: "§6 discusses MPTCP across multiple APs; here extra APs cover the route's dead zones",
		Run:   runExtMultiAP,
	})
}

func runExtMultiAP(cfg Config) *Output {
	out := newOutput()
	t := report.NewTable("Single AP vs multi-AP roaming, 250 s mobility route",
		"Coverage", "Protocol", "Downloaded (MB)", "Energy (J)", "LTE energy (J)")
	builds := []struct {
		label string
		mk    func(*energy.DeviceProfile) scenario.Scenario
	}{
		{"single AP", scenario.Mobility},
		{"multi-AP", scenario.MobilityMultiAP},
	}
	protos := []scenario.Protocol{scenario.MPTCP, scenario.EMPTCP, scenario.TCPWiFi, scenario.WiFiFirst}
	runs := cfg.runs(3)
	for _, b := range builds {
		sc := b.mk(cfg.device())
		rs := replicateGrid(cfg, sc, protos, runs)
		for pi, p := range protos {
			var dl, e, lteE []float64
			for _, r := range rs[pi*runs : (pi+1)*runs] {
				dl = append(dl, r.Downloaded.Megabytes())
				e = append(e, r.Energy.Joules())
				lteE = append(lteE, r.ByIface[energy.LTE].Joules())
			}
			t.Addf(b.label, p.String(), stats.Mean(dl), stats.Mean(e), stats.Mean(lteE))
			if p == scenario.EMPTCP {
				key := "emptcp_lteJ_single"
				if b.label == "multi-AP" {
					key = "emptcp_lteJ_multi"
				}
				out.Metrics[key] = stats.Mean(lteE)
			}
		}
	}
	out.Tables = append(out.Tables, t)
	out.Notes = append(out.Notes,
		"with the dead zones covered, eMPTCP rides WiFi nearly the whole route and its LTE energy collapses; "+
			"WiFi-First now reacts mid-route because roaming handovers drop the association")
	return out
}

func init() {
	register(&Experiment{
		ID:    "ext-sweep",
		Title: "Extension: κ/τ sensitivity (§4.1's parameters; tuning left as future work by the paper)",
		Paper: "κ=1 MB, τ=3 s \"have worked well for our experiments\"; refining them remains future work",
		Run:   runExtSweep,
	})
}

func runExtSweep(cfg Config) *Output {
	out := newOutput()
	runs := cfg.runs(6)

	// κ sweep: how often does a 256 KB download end up paying for LTE,
	// and what does it cost? Evaluated on moderately-good WiFi where the
	// download outlives τ only if κ is small.
	tk := report.NewTable("κ sweep — 256 KB downloads over 4 Mbps WiFi / 4.5 Mbps LTE",
		"κ", "LTE established (runs)", "Mean energy (J)")
	kappas := []float64{64, 256, 1024, 4096}
	kBase := scenario.StaticLab(cfg.device(), 4, 4.5, workload.FileDownload{Size: 256 * units.KB})
	kPoints := make([]scenario.Scenario, len(kappas))
	for i, k := range kappas {
		cc := core.DefaultConfig()
		cc.Kappa = units.ByteSize(k) * units.KB
		kPoints[i] = kBase
		kPoints[i].CoreConfig = &cc
	}
	kRuns := sweepRuns(cfg, runs, kPoints)
	for ki, kappaKB := range kappas {
		lteRuns := 0
		var es []float64
		for _, r := range kRuns[ki*runs : (ki+1)*runs] {
			if r.LTEUsed {
				lteRuns++
			}
			es = append(es, r.Energy.Joules())
		}
		tk.Addf(fmt.Sprintf("%.0f KB", kappaKB), fmt.Sprintf("%d/%d", lteRuns, runs), stats.Mean(es))
		out.Metrics[fmt.Sprintf("energy_J_kappa%.0fKB", kappaKB)] = stats.Mean(es)
	}
	out.Tables = append(out.Tables, tk)

	// τ sweep: on bad WiFi, τ is the time wasted before LTE rescues the
	// transfer; smaller τ finishes sooner but risks premature
	// establishment on merely-slow-starting connections.
	tt := report.NewTable("τ sweep — 8 MB downloads over 0.5 Mbps WiFi / 4.5 Mbps LTE",
		"τ (s)", "Mean completion (s)", "Mean energy (J)")
	taus := []float64{1, 3, 6, 12}
	tBase := scenario.StaticLab(cfg.device(), 0.5, 4.5, workload.FileDownload{Size: 8 * units.MB})
	tPoints := make([]scenario.Scenario, len(taus))
	for i, tau := range taus {
		cc := core.DefaultConfig()
		cc.Tau = tau
		tPoints[i] = tBase
		tPoints[i].CoreConfig = &cc
	}
	tRuns := sweepRuns(cfg, runs, tPoints)
	for ti, tau := range taus {
		var ts, es []float64
		for _, r := range tRuns[ti*runs : (ti+1)*runs] {
			ts = append(ts, r.CompletionTime)
			es = append(es, r.Energy.Joules())
		}
		tt.Addf(fmt.Sprintf("%.0f", tau), stats.Mean(ts), stats.Mean(es))
		out.Metrics[fmt.Sprintf("completion_s_tau%.0f", tau)] = stats.Mean(ts)
	}
	out.Tables = append(out.Tables, tt)
	out.Notes = append(out.Notes,
		"small κ pays the cellular fixed cost on transfers that WiFi would have finished anyway; "+
			"large τ delays the rescue of genuinely bad WiFi — the paper's 1 MB / 3 s sit in the flat middle")
	return out
}

func init() {
	register(&Experiment{
		ID:    "ext-hol",
		Title: "Extension: multipath head-of-line blocking vs receive-buffer size (Chen et al. [4])",
		Paper: "[4] measures MPTCP in wireless networks; small receive buffers + RTT asymmetry stall the fast path",
		Run:   runExtHOL,
	})
}

func runExtHOL(cfg Config) *Output {
	out := newOutput()
	// Buffer effects need a transfer well past slow start; the run is a
	// few simulated minutes at most, so Quick mode does not shrink it.
	size := 16 * units.MB
	t := report.NewTable(
		fmt.Sprintf("%v download, 10 Mbps/30 ms WiFi + 8 Mbps/600 ms LTE (overseas server)", size),
		"Receive buffer", "Completion (s)", "vs unlimited")
	run := func(rb units.ByteSize) float64 {
		eng := sim.New()
		src := simrng.New(cfg.BaseSeed + 7)
		fast := &tcp.Path{Name: "wifi", Capacity: link.NewConstant(units.MbpsRate(10)), BaseRTT: 0.03}
		slow := &tcp.Path{Name: "lte", Capacity: link.NewConstant(units.MbpsRate(8)), BaseRTT: 0.6}
		opts := mptcp.DefaultOptions()
		opts.ReceiveBuffer = rb
		c := mptcp.New(eng, src, opts)
		c.AddSubflow("wifi", energy.WiFi, fast, nil, 0)
		c.AddSubflow("lte", energy.LTE, slow, nil, 0)
		done := -1.0
		c.Download(size, func(at float64) { done = at })
		eng.Horizon = 3600
		eng.Run()
		return done
	}
	buffers := []units.ByteSize{0, 8 * units.MB, 1 * units.MB, 256 * units.KB, 64 * units.KB}
	ds := repeatRuns(cfg, len(buffers), func(i int, _ scenario.Opts) float64 { return run(buffers[i]) })
	unlimited := ds[0]
	for bi, rb := range buffers {
		label := "unlimited"
		if rb > 0 {
			label = rb.String()
		}
		d := ds[bi]
		t.Addf(label, d, fmt.Sprintf("%.2fx", d/unlimited))
		out.Metrics["completion_s_"+label] = d
	}
	out.Tables = append(out.Tables, t)
	out.Notes = append(out.Notes,
		"below the slow path's bandwidth-delay product the receive window is pinned by LTE's in-flight "+
			"data and the WiFi subflow stalls; the worst buffer is one just big enough to admit slow-path "+
			"chunks (256 KB here), while a starved one degenerates toward WiFi-only — why the paper's "+
			"servers (and real MPTCP deployments) need large reordering buffers on asymmetric paths")
	return out
}

func init() {
	register(&Experiment{
		ID:    "ext-battery",
		Title: "Extension: a day's network energy as battery percentage",
		Paper: "the motivation of §1: devices are constrained by available battery power",
		Run:   runExtBattery,
	})
}

// runExtBattery composes a plausible daily mix — web sessions, file
// downloads and a streamed video — and expresses each protocol's network
// energy as a share of the Galaxy S3's battery.
func runExtBattery(cfg Config) *Output {
	out := newOutput()
	dev := cfg.device()
	webSessions := 20
	downloads := 6
	if cfg.Quick {
		webSessions, downloads = 4, 2
	}
	t := report.NewTable(
		fmt.Sprintf("Daily mix on %s: %d web sessions + %d×16 MB downloads + one 2-minute stream (good WiFi / 4.5 Mbps LTE)",
			dev.Name, webSessions, downloads),
		"Protocol", "Energy (J)", "Battery %")
	// One flat index space per protocol: webSessions pages, then the
	// downloads, then the stream. Joules are summed in index order, so the
	// floating-point total is identical at any job count.
	perProto := webSessions + downloads + 1
	joules := repeatRuns(cfg, len(labProtos)*perProto, func(j int, opt scenario.Opts) float64 {
		p, k := labProtos[j/perProto], j%perProto
		var r scenario.Result
		switch {
		case k < webSessions:
			opt.Seed = cfg.BaseSeed + int64(k)
			r = scenario.Run(scenario.WebBrowsing(dev), p, opt)
		case k < webSessions+downloads:
			opt.Seed = cfg.BaseSeed + 100 + int64(k-webSessions)
			r = scenario.Run(scenario.Wild(dev, scenario.Good, scenario.Good, scenario.WDC,
				workload.FileDownload{Size: 16 * units.MB}), p, opt)
		default:
			opt.Seed = cfg.BaseSeed + 200
			r = scenario.Run(scenario.StaticLab(dev, 12, 4.5, workload.DefaultStreaming()), p, opt)
		}
		return r.Energy.Joules()
	})
	for pi, p := range labProtos {
		total := 0.0
		for _, j := range joules[pi*perProto : (pi+1)*perProto] {
			total += j
		}
		pct := dev.BatteryFraction(units.Energy(total)) * 100
		t.Addf(p.String(), total, pct)
		out.Metrics["battery_pct_"+p.String()] = pct
	}
	out.Tables = append(out.Tables, t)
	out.Notes = append(out.Notes,
		"the daily delta is dominated by the web sessions' avoided promotions and tails — "+
			"exactly the small-transfer regime delayed establishment was designed for")
	return out
}
