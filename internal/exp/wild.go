package exp

import (
	"fmt"

	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simrng"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

func init() {
	register(&Experiment{
		ID:    "fig14",
		Title: "Trace categorization: measured WiFi/LTE throughput of 16 MB wild downloads",
		Paper: "scatter over four Good/Bad categories with an 8 Mbps threshold",
		Run:   runFig14,
	})
	register(&Experiment{
		ID:    "fig15",
		Title: "Small file transfers in the wild (256 KB): whisker plots per category",
		Paper: "eMPTCP ≈ TCP/WiFi everywhere: 75–90% less energy than MPTCP at similar times; a few timer-triggered LTE outliers",
		Run:   runFig15,
	})
	register(&Experiment{
		ID:    "fig16",
		Title: "Large file transfers in the wild (16 MB): whisker plots per category",
		Paper: "Bad-Bad: eMPTCP 33% less energy, 20% less time; Bad-Good: ≈MPTCP; Good-*: ~50% of MPTCP's energy, ~20% more time",
		Run:   runFig16,
	})
	register(&Experiment{
		ID:    "fig17",
		Title: "Web browsing (CNN home page, 107 objects over 6 connections)",
		Paper: "MPTCP uses ~60% more energy than eMPTCP and TCP/WiFi; latencies similar",
		Run:   runFig17,
	})
}

// categories enumerates the §5.1 grid in the paper's presentation order.
var categories = []struct {
	name  string
	wifiQ scenario.Quality
	lteQ  scenario.Quality
}{
	{"Bad WiFi & Bad LTE", scenario.Bad, scenario.Bad},
	{"Bad WiFi & Good LTE", scenario.Bad, scenario.Good},
	{"Good WiFi & Bad LTE", scenario.Good, scenario.Bad},
	{"Good WiFi & Good LTE", scenario.Good, scenario.Good},
}

// wildRuns executes `runs` iterations per category, spreading them across
// the three server locations as the paper's trace collection did. The full
// category × run × protocol grid is flattened onto the worker pool (runs
// share seeds across protocols, as the paper's paired measurements do) and
// reduced in index order, keeping the whisker tables deterministic.
func wildRuns(cfg Config, size units.ByteSize, protos []scenario.Protocol, runs int) map[string]map[scenario.Protocol]*measures {
	np := len(protos)
	rs := repeatRuns(cfg, len(categories)*runs*np, func(j int, opt scenario.Opts) scenario.Result {
		ci, rem := j/(runs*np), j%(runs*np)
		i, pi := rem/np, rem%np
		cat := categories[ci]
		loc := scenario.AllServerLocs[i%len(scenario.AllServerLocs)]
		sc := scenario.Wild(cfg.device(), cat.wifiQ, cat.lteQ, loc, workload.FileDownload{Size: size})
		opt.Seed = cfg.BaseSeed + int64(ci*1000+i)
		return scenario.Run(sc, protos[pi], opt)
	})
	out := map[string]map[scenario.Protocol]*measures{}
	for ci, cat := range categories {
		byProto := map[scenario.Protocol]*measures{}
		for _, p := range protos {
			byProto[p] = &measures{}
		}
		for i := 0; i < runs; i++ {
			for pi, p := range protos {
				byProto[p].add(rs[ci*runs*np+i*np+pi])
			}
		}
		out[cat.name] = byProto
	}
	return out
}

func runFig14(cfg Config) *Output {
	out := newOutput()
	t := report.NewTable("Figure 14 — measured throughput of 16 MB MPTCP downloads",
		"Category", "Run", "WiFi (Mbps)", "LTE (Mbps)", "Measured category")
	scatterPlot := &report.Scatter{
		Title:  "Figure 14 — scatter (letter = WiFi/LTE category: b=Bad-Bad, g=Bad-Good, B=Good-Bad, G=Good-Good)",
		XLabel: "WiFi (Mbps, 0–25)", YLabel: "LTE (Mbps, 0–25)",
		XMax: 25, YMax: 25,
	}
	catRunes := []rune{'b', 'g', 'B', 'G'}
	size := units.ByteSize(cfg.scaleMB(16)) * units.MB
	runs := cfg.runs(6)
	correct, total := 0, 0
	type catRun struct {
		completed bool
		wifi, lte units.BitRate
	}
	rs := repeatRuns(cfg, len(categories)*runs, func(j int, opt scenario.Opts) catRun {
		ci, i := j/runs, j%runs
		cat := categories[ci]
		loc := scenario.AllServerLocs[i%len(scenario.AllServerLocs)]
		sc := scenario.Wild(cfg.device(), cat.wifiQ, cat.lteQ, loc, workload.FileDownload{Size: size})
		opt.Seed = cfg.BaseSeed + int64(ci*1000+i)
		r := scenario.Run(sc, scenario.MPTCP, opt)
		// The per-run link-rate draw is what the paper's Figure 14
		// scatters; re-derive it by replaying the run's seed.
		w, l := drawnRates(sc, cfg.BaseSeed+int64(ci*1000+i))
		return catRun{completed: r.Completed, wifi: w, lte: l}
	})
	for ci, cat := range categories {
		for i := 0; i < runs; i++ {
			cr := rs[ci*runs+i]
			if !cr.completed {
				continue
			}
			wifiMbps, lteMbps := cr.wifi.Mbit(), cr.lte.Mbit()
			w, l := cr.wifi, cr.lte
			meas := fmt.Sprintf("%v WiFi & %v LTE", scenario.Categorize(w), scenario.Categorize(l))
			want := fmt.Sprintf("%v WiFi & %v LTE", cat.wifiQ, cat.lteQ)
			if meas == want {
				correct++
			}
			total++
			t.Addf(cat.name, i, wifiMbps, lteMbps, meas)
			scatterPlot.AddPoint(wifiMbps, lteMbps, catRunes[ci])
		}
	}
	out.Tables = append(out.Tables, t)
	out.Metrics["category_agreement_frac"] = float64(correct) / float64(total)
	out.Notes = append(out.Notes, scatterPlot.String())
	return out
}

// drawnRates reproduces the per-run link-rate draw of a wild scenario by
// replaying the seed-split sequence scenario.Run uses.
func drawnRates(sc scenario.Scenario, seed int64) (wifi, lte units.BitRate) {
	eng := sim.New()
	src := simrng.New(seed)
	w := sc.WiFi(eng, src.Split(scenario.SplitWiFi))
	l := sc.LTE(eng, src.Split(scenario.SplitLTE))
	return w.Rate(), l.Rate()
}

func runFig15(cfg Config) *Output {
	return runWhiskerFigure(cfg, "Figure 15 — small file transfers (256 KB)",
		units.ByteSize(256)*units.KB, "fig15")
}

func runFig16(cfg Config) *Output {
	size := units.ByteSize(cfg.scaleMB(16)) * units.MB
	return runWhiskerFigure(cfg, "Figure 16 — large file transfers (16 MB)", size, "fig16")
}

func runWhiskerFigure(cfg Config, title string, size units.ByteSize, prefix string) *Output {
	out := newOutput()
	protos := labProtos
	ms := wildRuns(cfg, size, protos, cfg.runs(9))
	te := report.NewTable(title+" — energy (J): Q1 / median / Q3 (outliers)",
		"Category", "MPTCP", "eMPTCP", "TCP over WiFi")
	tt := report.NewTable(title+" — download time (s): Q1 / median / Q3 (outliers)",
		"Category", "MPTCP", "eMPTCP", "TCP over WiFi")
	for _, cat := range categories {
		byProto := ms[cat.name]
		rowE := []string{cat.name}
		rowT := []string{cat.name}
		for _, p := range protos {
			rowE = append(rowE, report.WhiskerString(stats.NewWhisker(byProto[p].energy)))
			rowT = append(rowT, report.WhiskerString(stats.NewWhisker(byProto[p].time)))
		}
		te.Add(rowE...)
		tt.Add(rowT...)
		// The paper's whisker figures compare medians; a few
		// timer-triggered LTE outliers would otherwise skew means.
		em := stats.Quantile(byProto[scenario.EMPTCP].energy, 0.5)
		mp := stats.Quantile(byProto[scenario.MPTCP].energy, 0.5)
		key := prefix + "_emptcp_energy_pct_" + shortCat(cat.name)
		out.Metrics[key] = stats.Ratio(em, mp)
	}
	out.Tables = append(out.Tables, te, tt)
	return out
}

func shortCat(name string) string {
	switch name {
	case "Bad WiFi & Bad LTE":
		return "bb"
	case "Bad WiFi & Good LTE":
		return "bg"
	case "Good WiFi & Bad LTE":
		return "gb"
	default:
		return "gg"
	}
}

func runFig17(cfg Config) *Output {
	out := newOutput()
	runs := cfg.runs(10)
	t := report.NewTable("Figure 17 — Web browsing",
		"Protocol", "Energy (J, mean ± SEM)", "Latency (s, mean ± SEM)")
	ms := collect(cfg, scenario.WebBrowsing(cfg.device()), labProtos, runs)
	for _, p := range labProtos {
		m := ms[p]
		t.Add(p.String(), report.MeanSEM(stats.Summarize(m.energy)), report.MeanSEM(stats.Summarize(m.time)))
	}
	out.Tables = append(out.Tables, t)
	out.Metrics["mptcp_energy_vs_emptcp_pct"] =
		stats.Ratio(stats.Mean(ms[scenario.MPTCP].energy), stats.Mean(ms[scenario.EMPTCP].energy))
	out.Metrics["emptcp_latency_vs_mptcp_pct"] =
		stats.Ratio(stats.Mean(ms[scenario.EMPTCP].time), stats.Mean(ms[scenario.MPTCP].time))
	out.Notes = append(out.Notes,
		"all page objects are <256 KB, so eMPTCP never opens the LTE subflow on any of the 6 connections")
	return out
}
