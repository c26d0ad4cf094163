package scenario

import (
	"fmt"
	"math"

	"repro/internal/energy"
	"repro/internal/link"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/simrng"
	"repro/internal/units"
	"repro/internal/workload"
)

// Lab RTTs: the campus server is close by on both paths, with LTE's core
// network adding latency (the paper's Table-2-era AT&T LTE RTTs ran
// 60–90 ms).
const (
	labWiFiRTT = 0.03
	labLTERTT  = 0.07
)

// labLTERate is the effective LTE goodput in the dynamic lab scenarios
// (§4.3–§4.5). The paper's measured MPTCP completion times in those
// experiments imply an effective AT&T LTE rate of roughly 3–5 Mbps at the
// device (far below the cell's nominal peak), and the eMPTCP-vs-MPTCP
// energy margins of Figures 8, 10 and 13 only appear when LTE's per-byte
// cost sits well above good WiFi's, which this rate reproduces.
var labLTERate = units.MbpsRate(4.5)

// linkKind names the library constructor that built a scenario's links.
type linkKind uint8

// The library's link constructors. linkCustom is the zero value: a
// scenario built outside the library, whose link builders are opaque
// and which is therefore never keyed.
const (
	linkCustom linkKind = iota
	linkStaticLab
	linkRandomBW
	linkBackground
	linkMobility
	linkMultiAP
	linkWild
)

// linkSig stands in for the link-builder funcs in the run key
// (CacheKey): the constructor that built them and the exact parameters
// they close over — float64 bits, or integers widened to 64 bits.
type linkSig struct {
	kind linkKind
	args [4]uint64
}

// sig builds a link signature.
func sig(kind linkKind, args ...uint64) linkSig {
	s := linkSig{kind: kind}
	copy(s.args[:], args)
	return s
}

// bits is math.Float64bits for the float-valued link parameters.
func bits[F ~float64](v F) uint64 { return math.Float64bits(float64(v)) }

// constProc adapts a fixed rate to the Scenario link-builder signature.
func constProc(rate units.BitRate) func(*sim.Engine, *simrng.Source) link.Process {
	return func(*sim.Engine, *simrng.Source) link.Process { return link.NewConstant(rate) }
}

// StaticLab is the §4.2 environment: fixed WiFi and LTE bandwidths at a
// fixed location. Good WiFi is >10 Mbps, bad WiFi <1 Mbps in the paper.
func StaticLab(device *energy.DeviceProfile, wifiMbps, lteMbps float64, work workload.Workload) Scenario {
	return Scenario{
		Name:    fmt.Sprintf("static wifi=%.1fMbps lte=%.1fMbps", wifiMbps, lteMbps),
		Device:  device,
		WiFi:    constProc(units.MbpsRate(wifiMbps)),
		LTE:     constProc(units.MbpsRate(lteMbps)),
		WiFiRTT: labWiFiRTT,
		LTERTT:  labLTERTT,
		Work:    work,
		linkSig: sig(linkStaticLab, bits(wifiMbps), bits(lteMbps)),
	}
}

// RandomBandwidth is the §4.3 environment: WiFi link bandwidth modulated
// by a two-state on-off process with exponential holding times of mean
// 40 s, alternating between ≥10 Mbps and ≤1 Mbps, while the device
// downloads a 256 MB file.
func RandomBandwidth(device *energy.DeviceProfile, work workload.Workload) Scenario {
	return Scenario{
		Name:   "random wifi bandwidth changes",
		Device: device,
		WiFi: func(eng *sim.Engine, src *simrng.Source) link.Process {
			return link.NewOnOffModulator(eng, src,
				units.MbpsRate(12), units.MbpsRate(0.8), 40, false)
		},
		LTE:     constProc(labLTERate),
		WiFiRTT: labWiFiRTT,
		LTERTT:  labLTERTT,
		Work:    work,
		linkSig: sig(linkRandomBW, bits(labLTERate)),
	}
}

// BackgroundTraffic is the §4.4 environment: n interfering nodes on the
// device's WiFi channel, each generating UDP traffic per a two-state
// Markov on-off process with rates λon and λoff.
func BackgroundTraffic(device *energy.DeviceProfile, n int, lambdaOn, lambdaOff float64, work workload.Workload) Scenario {
	return Scenario{
		Name:   fmt.Sprintf("background traffic n=%d λon=%v λoff=%v", n, lambdaOn, lambdaOff),
		Device: device,
		WiFi: func(eng *sim.Engine, src *simrng.Source) link.Process {
			return link.NewContendedWiFi(eng, src, units.MbpsRate(14), n, lambdaOn, lambdaOff)
		},
		LTE:     constProc(labLTERate),
		WiFiRTT: labWiFiRTT,
		LTERTT:  labLTERTT,
		Work:    work,
		linkSig: sig(linkBackground, uint64(n), bits(lambdaOn), bits(lambdaOff), bits(labLTERate)),
	}
}

// MobilityDuration is the §4.5 measurement window.
const MobilityDuration = 250

// Mobility is the §4.5 environment: the device walks the Figure 11 route
// through the UMass CS building for 250 seconds while bulk-downloading;
// WiFi throughput follows distance to the AP.
func Mobility(device *energy.DeviceProfile) Scenario {
	return Scenario{
		Name:   "mobile scenario (Figure 11 route)",
		Device: device,
		WiFi: func(eng *sim.Engine, src *simrng.Source) link.Process {
			route, ap := phy.UMassCSRoute()
			return link.NewMobileWiFi(eng, phy.DefaultWiFiCell(), route, ap)
		},
		LTE:     constProc(labLTERate),
		WiFiRTT: labWiFiRTT,
		LTERTT:  labLTERTT,
		Work:    workload.Bulk{},
		Horizon: MobilityDuration,
		linkSig: sig(linkMobility, bits(labLTERate)),
	}
}

// Quality is the §5.1 Good/Bad categorization; the threshold between them
// is 8 Mbps.
type Quality int

// Link quality categories.
const (
	Bad Quality = iota
	Good
)

// QualityThreshold is the Good/Bad boundary of §5.1.
var QualityThreshold = units.MbpsRate(8)

// String names the quality.
func (q Quality) String() string {
	if q == Good {
		return "Good"
	}
	return "Bad"
}

// Categorize maps a measured throughput to its §5.1 category.
func Categorize(rate units.BitRate) Quality {
	if rate >= QualityThreshold {
		return Good
	}
	return Bad
}

// ServerLoc is one of the paper's in-the-wild server deployments.
type ServerLoc int

// The §5 server locations.
const (
	WDC ServerLoc = iota // Washington D.C. (North America)
	AMS                  // Amsterdam (Europe)
	SNG                  // Singapore (Asia)
)

// String names the location as the paper abbreviates it.
func (s ServerLoc) String() string {
	switch s {
	case WDC:
		return "WDC"
	case AMS:
		return "AMS"
	case SNG:
		return "SNG"
	default:
		return fmt.Sprintf("ServerLoc(%d)", int(s))
	}
}

// AllServerLocs lists the three deployments.
var AllServerLocs = []ServerLoc{WDC, AMS, SNG}

// rtts returns the WiFi- and LTE-path RTTs to the server from the US
// client sites.
func (s ServerLoc) rtts() (wifi, lte float64) {
	switch s {
	case AMS:
		return 0.10, 0.14
	case SNG:
		return 0.24, 0.28
	default: // WDC
		return 0.035, 0.075
	}
}

// Wild builds a §5 in-the-wild scenario: per-run constant link rates drawn
// from the requested quality category (Good: 8–25 Mbps, Bad: 0.3–8 Mbps)
// and RTTs set by the server location. The draw is seeded by the run, so
// ten iterations spread over each category as the paper's Figure 14
// scatter does.
func Wild(device *energy.DeviceProfile, wifiQ, lteQ Quality, loc ServerLoc, work workload.Workload) Scenario {
	wifiRTT, lteRTT := loc.rtts()
	draw := func(q Quality, src *simrng.Source) units.BitRate {
		if q == Good {
			return units.MbpsRate(src.Uniform(8.5, 25))
		}
		return units.MbpsRate(src.Uniform(0.3, 7.5))
	}
	return Scenario{
		Name:   fmt.Sprintf("wild %v-WiFi %v-LTE via %v", wifiQ, lteQ, loc),
		Device: device,
		WiFi: func(eng *sim.Engine, src *simrng.Source) link.Process {
			return link.NewConstant(draw(wifiQ, src))
		},
		LTE: func(eng *sim.Engine, src *simrng.Source) link.Process {
			return link.NewConstant(draw(lteQ, src))
		},
		WiFiRTT: wifiRTT,
		LTERTT:  lteRTT,
		Work:    work,
		linkSig: sig(linkWild, uint64(wifiQ), uint64(lteQ)),
	}
}

// WebBrowsing is the §5.4 case study: the CNN page from the Washington DC
// server in a good-WiFi/good-LTE environment.
func WebBrowsing(device *energy.DeviceProfile) Scenario {
	sc := Wild(device, Good, Good, WDC, workload.DefaultWebPage())
	sc.Name = "web browsing (CNN home page, 107 objects)"
	return sc
}

// MobilityMultiAP is the §4.5 route with campus-style multi-AP WiFi
// coverage (an extension toward Croitoru et al., discussed in the paper's
// §6): two additional APs cover the route's out-of-range excursions, with
// roaming handovers between them.
func MobilityMultiAP(device *energy.DeviceProfile) Scenario {
	sc := Mobility(device)
	sc.Name = "mobile scenario with multi-AP roaming"
	sc.WiFi = func(eng *sim.Engine, src *simrng.Source) link.Process {
		route, ap := phy.UMassCSRoute()
		aps := []phy.Point{ap, {X: 72, Y: 14}, {X: 35, Y: 25}}
		return link.NewMultiAPWiFi(eng, phy.DefaultWiFiCell(), route, aps)
	}
	sc.linkSig = sig(linkMultiAP, bits(labLTERate))
	return sc
}
