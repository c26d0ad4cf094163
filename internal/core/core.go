// Package core implements eMPTCP, the paper's contribution (§3): an
// energy-aware MPTCP that monitors path characteristics at run time and
// dynamically chooses paths by per-byte energy efficiency.
//
// Four components extend the regular MPTCP machinery (Figure 2):
//
//   - the bandwidth predictor (§3.2) samples per-interface subflow
//     throughput at an interval derived from the establishment RTT and
//     forecasts it with Holt-Winters;
//   - the energy information base (§3.3, package eib) holds the
//     offline-computed transition thresholds indexed by LTE throughput;
//   - the path usage controller (§3.4) queries both and switches the
//     interface set with a 10 % hysteresis safety factor, suspending and
//     resuming the LTE subflow via MP_PRIO;
//   - delayed subflow establishment (§3.5) keeps the cellular subflow
//     down for small transfers (κ bytes), with a τ-second escape timer for
//     slow WiFi (equation 1) and an idle-connection postponement rule.
//
// It requires no user intervention and no changes to applications: the
// controller attaches to an mptcp.Connection and drives everything from
// its periodic tick.
package core

import (
	"math"

	"repro/internal/eib"
	"repro/internal/energy"
	"repro/internal/forecast"
	"repro/internal/mptcp"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/trace"
	"repro/internal/units"
)

// Config carries eMPTCP's tunables, defaulting to the values of §4.1.
type Config struct {
	// Kappa is the WiFi byte count below which the cellular subflow is
	// not established (1 MB in the paper: MPTCP is rarely more energy
	// efficient than single-path TCP below that, Figure 4).
	Kappa units.ByteSize
	// Tau is the establishment escape timer in seconds (3 s in §4.1).
	Tau float64
	// InitialAssumedRate seeds the predictor for interfaces that have
	// never been activated, so the path gets probed (§3.2, "e.g. 5
	// Mbps").
	InitialAssumedRate units.BitRate
	// MinSampleInterval floors the predictor sampling interval δ; δ is
	// otherwise the subflow establishment RTT (§3.2).
	MinSampleInterval float64
	// PredictorAlpha/PredictorBeta are the Holt-Winters smoothing
	// parameters.
	PredictorAlpha float64
	PredictorBeta  float64
	// MinRate, when positive, makes the controller rate-aware (an
	// extension toward the paper's §7 streaming future work): whenever
	// the selected path set's predicted aggregate throughput falls below
	// MinRate while data is outstanding, the controller adds paths
	// regardless of per-byte efficiency — energy optimization must not
	// starve a real-time workload. Zero (the default, and the paper's
	// behaviour) disables it.
	MinRate units.BitRate
}

// DefaultConfig returns the paper's parameter choices.
func DefaultConfig() Config {
	return Config{
		Kappa:              1 * units.MB,
		Tau:                3.0,
		InitialAssumedRate: units.MbpsRate(5),
		MinSampleInterval:  0.2,
		PredictorAlpha:     0.5,
		PredictorBeta:      0.2,
	}
}

// RequiredTau evaluates equation 1: the smallest τ that lets the predictor
// collect phi samples after the WiFi subflow's slow start stabilizes,
// given available WiFi throughput bw, initial window winit and RTT rtt.
func RequiredTau(bw units.BitRate, rtt float64, winit units.ByteSize, phi int) float64 {
	if bw <= 0 || rtt <= 0 || winit <= 0 {
		return 0
	}
	perRTT := units.ByteSize(bw.BytesPerSecond() * rtt)
	return rtt * (math.Log2(float64(perRTT+winit)/float64(winit)) + float64(phi))
}

// RadioControl lets the controller power radios up before using them; the
// scenario layer implements it over the energy.Accountant.
type RadioControl interface {
	// Activate requests the radio for iface and returns the delay before
	// data can flow (the cellular promotion).
	Activate(iface energy.Interface) (delay float64)
}

// nopRadio is used when no radio control is supplied (pure transport
// tests).
type nopRadio struct{}

func (nopRadio) Activate(energy.Interface) float64 { return 0 }

// predictor wraps one interface's sampling state.
type predictor struct {
	hw        *forecast.HoltWinters
	lastBytes units.ByteSize
	seeded    bool
}

// Controller is the eMPTCP engine attached to one MPTCP connection.
type Controller struct {
	cfg   Config
	eng   *sim.Engine
	conn  *mptcp.Connection
	table *eib.Table
	radio RadioControl

	// EstablishLTE is called exactly once, when the controller decides to
	// bring the cellular subflow up; the scenario layer supplies it and
	// returns the new subflow. The extraDelay argument carries the radio
	// promotion delay to pass to AddSubflow.
	establishLTE func(extraDelay float64) *tcp.Subflow

	wifiSF *tcp.Subflow
	lteSF  *tcp.Subflow

	preds      [energy.NumInterfaces]*predictor
	current    energy.PathSet
	tauFired   bool
	started    float64
	ticker     *sim.Ticker
	hadBacklog bool // connection had outstanding data at the last tick

	// Switches counts path-set changes (for the hysteresis ablation).
	Switches int
	// Decisions records the controller's path-set decision history as
	// (time, set) pairs when Record is true.
	Record    bool
	Decisions []Decision
}

// Decision is one recorded path-usage decision.
type Decision struct {
	At  float64
	Set energy.PathSet
}

// New attaches an eMPTCP controller to conn. wifiSF is the default-primary
// WiFi subflow (§3.6: WiFi is the default interface since it is more
// energy efficient and has negligible fixed costs). establishLTE is
// invoked when delayed establishment decides to open the cellular subflow;
// radio may be nil when no radio model is in play.
func New(eng *sim.Engine, cfg Config, table *eib.Table, conn *mptcp.Connection,
	wifiSF *tcp.Subflow, radio RadioControl,
	establishLTE func(extraDelay float64) *tcp.Subflow) *Controller {

	if cfg.Kappa < 0 || cfg.Tau < 0 || cfg.MinSampleInterval <= 0 {
		panic("core: invalid config")
	}
	if radio == nil {
		radio = nopRadio{}
	}
	c := &Controller{
		cfg:          cfg,
		eng:          eng,
		conn:         conn,
		table:        table,
		radio:        radio,
		establishLTE: establishLTE,
		wifiSF:       wifiSF,
		current:      energy.WiFiOnly,
		started:      eng.Now(),
	}
	for i := range c.preds {
		c.preds[i] = &predictor{hw: forecast.NewHoltWinters(cfg.PredictorAlpha, cfg.PredictorBeta)}
	}
	// Never-activated interfaces are assumed to have non-zero throughput.
	c.preds[energy.LTE].hw.Seed(float64(cfg.InitialAssumedRate.Mbit()))

	// The sampling interval δ follows the establishment RTT (§3.2).
	delta := cfg.MinSampleInterval
	if wifiSF != nil && wifiSF.HandshakeRTT > delta {
		delta = wifiSF.HandshakeRTT
	}
	c.ticker = eng.Tick(delta, c.tick)
	if cfg.Tau > 0 {
		eng.After(cfg.Tau, func() { c.tauFired = true })
	} else {
		c.tauFired = true
	}
	return c
}

// Stop halts the controller's ticker.
func (c *Controller) Stop() { c.ticker.Stop() }

// Current returns the path set the controller last selected.
func (c *Controller) Current() energy.PathSet { return c.current }

// LTEEstablished reports whether the cellular subflow has been opened.
func (c *Controller) LTEEstablished() bool { return c.lteSF != nil }

// PredictedWiFi returns the forecast WiFi throughput.
func (c *Controller) PredictedWiFi() units.BitRate {
	return c.predicted(energy.WiFi)
}

// PredictedLTE returns the forecast LTE throughput.
func (c *Controller) PredictedLTE() units.BitRate {
	return c.predicted(energy.LTE)
}

func (c *Controller) predicted(iface energy.Interface) units.BitRate {
	v := c.preds[iface].hw.Predict(1)
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	return units.MbpsRate(v)
}

// tick is the controller's heartbeat: sample throughputs, feed the
// predictors, then run delayed establishment or path usage control.
func (c *Controller) tick() {
	c.sample()
	c.hadBacklog = c.conn.Outstanding() > 0
	if c.lteSF == nil {
		c.maybeEstablishLTE()
		return
	}
	c.controlPathUsage()
}

// sample measures each interface's throughput since the last tick and
// feeds the predictor. Suspended or absent interfaces contribute no
// sample: the predictor keeps its old observations, exactly the
// deactivated-interface rule of §3.2.
func (c *Controller) sample() {
	c.observe(energy.WiFi, c.wifiSF)
	c.observe(energy.LTE, c.lteSF)
}

func (c *Controller) observe(iface energy.Interface, sf *tcp.Subflow) {
	if sf == nil || sf.State() != tcp.Established || sf.Suspended() {
		return
	}
	p := c.preds[iface]
	delta := sf.BytesDelivered - p.lastBytes
	p.lastBytes = sf.BytesDelivered
	if !p.seeded {
		// Skip the first partial interval after (re)activation.
		p.seeded = true
		return
	}
	// Application-limited windows (no backlog through the whole window:
	// HTTP gaps, paced streaming, a request arriving mid-window) say
	// nothing about the path and must not drag the estimate down. A low
	// sample with data outstanding end-to-end is real: the path has
	// degraded.
	if !c.hadBacklog || c.conn.Outstanding() <= 0 {
		return
	}
	mbps := delta.Bits() / c.ticker.Interval() / 1e6
	p.hw.Observe(mbps)
}

// maybeEstablishLTE implements delayed subflow establishment (§3.5).
func (c *Controller) maybeEstablishLTE() {
	wifiBytes := units.ByteSize(0)
	if c.wifiSF != nil {
		wifiBytes = c.wifiSF.BytesDelivered
	}
	// Neither κ bytes nor the τ timer yet: keep waiting.
	if wifiBytes < c.cfg.Kappa && !c.tauFired {
		return
	}
	// Idle connections never trigger cellular establishment, even after
	// τ (HTTP holds connections open in idle states).
	idleWindow := c.cfg.MinSampleInterval
	if c.wifiSF != nil && c.wifiSF.SRTT() > idleWindow {
		idleWindow = c.wifiSF.SRTT()
	}
	idle := c.conn.IdleFor(idleWindow)
	// Even past κ, postpone while measured WiFi throughput is large
	// enough that WiFi-only beats using both — unless a rate floor is
	// configured and WiFi alone cannot hold it.
	wifi := c.PredictedWiFi()
	lte := c.PredictedLTE()
	holdsFloor := c.cfg.MinRate <= 0 || wifi >= c.cfg.MinRate
	wifiOnly := c.table.Best(wifi, lte) == energy.WiFiOnly
	if idle || (wifiOnly && holdsFloor) {
		return
	}
	delay := c.radio.Activate(energy.LTE)
	c.lteSF = c.establishLTE(delay)
	c.setPathSet(energy.Both)
	// The first throughput sample after establishment covers a partial
	// interval; resync the byte counter.
	c.preds[energy.LTE].lastBytes = 0
	c.preds[energy.LTE].seeded = false
}

// controlPathUsage implements the §3.4 controller: query the EIB with the
// predicted throughputs and apply the decision through MP_PRIO.
func (c *Controller) controlPathUsage() {
	wifi := c.PredictedWiFi()
	lte := c.PredictedLTE()
	next := c.table.Decide(c.current, wifi, lte)
	next = c.enforceMinRate(next, wifi, lte)
	if next == c.current {
		return
	}
	c.apply(next)
}

// enforceMinRate overrides an energy-optimal decision that would starve a
// rate-constrained workload (Config.MinRate).
func (c *Controller) enforceMinRate(next energy.PathSet, wifi, lte units.BitRate) energy.PathSet {
	if c.cfg.MinRate <= 0 || c.conn.Outstanding() <= 0 {
		return next
	}
	agg := units.BitRate(0)
	if next.UseWiFi {
		agg += wifi
	}
	if next.UseLTE {
		agg += lte
	}
	if agg >= c.cfg.MinRate {
		return next
	}
	// Falling behind: open everything we have.
	return energy.Both
}

// apply moves the connection to the given path set.
func (c *Controller) apply(next energy.PathSet) {
	lteWasSuspended := c.lteSF.Suspended()
	switch next {
	case energy.WiFiOnly:
		c.conn.SetBackup(c.lteSF, true)
		c.resumeWiFi()
	case energy.LTEOnly:
		c.resumeLTE(lteWasSuspended)
		c.wifiSF.Suspend()
	default: // Both
		c.resumeWiFi()
		c.resumeLTE(lteWasSuspended)
	}
	c.setPathSet(next)
}

func (c *Controller) resumeWiFi() {
	if c.wifiSF.Suspended() {
		c.radio.Activate(energy.WiFi)
		c.conn.SetBackup(c.wifiSF, false)
	}
}

// resumeLTE lifts MP_PRIO from the LTE subflow, waiting out the radio
// promotion when the radio had demoted to idle. The subflow skips the
// RFC 2861 window reset and is re-probed immediately (its configuration
// carries DisableIdleCwndReset; §3.6's fast-reuse).
func (c *Controller) resumeLTE(wasSuspended bool) {
	if !wasSuspended {
		return
	}
	delay := c.radio.Activate(energy.LTE)
	sf := c.lteSF
	if delay <= 0 {
		c.conn.SetBackup(sf, false)
		return
	}
	c.eng.After(delay, func() { c.conn.SetBackup(sf, false) })
	// Resync sampling over the gap.
	c.preds[energy.LTE].seeded = false
	c.preds[energy.LTE].lastBytes = sf.BytesDelivered
}

func (c *Controller) setPathSet(ps energy.PathSet) {
	if ps == c.current {
		return
	}
	if rec := c.eng.Recorder(); rec != nil {
		rec.Record(trace.Event{
			T: c.eng.Now(), Kind: trace.KindPathSet,
			From: c.current.String(), To: ps.String(),
		})
	}
	c.current = ps
	c.Switches++
	if c.Record {
		c.Decisions = append(c.Decisions, Decision{At: c.eng.Now(), Set: ps})
	}
}
