package mptcp

import (
	"testing"
	"testing/quick"

	"repro/internal/cc"
	"repro/internal/energy"
	"repro/internal/link"
	"repro/internal/sim"
	"repro/internal/simrng"
	"repro/internal/tcp"
	"repro/internal/units"
)

type env struct {
	eng  *sim.Engine
	src  *simrng.Source
	wifi *tcp.Path
	lte  *tcp.Path
}

func newEnv(wifiMbps, lteMbps float64) *env {
	eng := sim.New()
	return &env{
		eng:  eng,
		src:  simrng.New(42),
		wifi: &tcp.Path{Name: "wifi", Capacity: link.NewConstant(units.MbpsRate(wifiMbps)), BaseRTT: 0.03},
		lte:  &tcp.Path{Name: "lte", Capacity: link.NewConstant(units.MbpsRate(lteMbps)), BaseRTT: 0.07},
	}
}

func (e *env) twoPath(opts Options) *Connection {
	c := New(e.eng, e.src, opts)
	c.AddSubflow("wifi", energy.WiFi, e.wifi, nil, 0)
	c.AddSubflow("lte", energy.LTE, e.lte, nil, 0)
	return c
}

func TestAggregatesBandwidth(t *testing.T) {
	// The headline MPTCP benefit: throughput ≈ sum of both paths.
	e := newEnv(8, 6)
	c := e.twoPath(DefaultOptions())
	done := -1.0
	c.Download(64*units.MB, func(at float64) { done = at })
	e.eng.Horizon = 300
	e.eng.Run()
	if done < 0 {
		t.Fatal("download did not complete")
	}
	ideal := units.MbpsRate(14).TimeToSend(64 * units.MB).Seconds()
	if done > ideal*1.6 {
		t.Errorf("download took %.1f s, aggregate-ideal %.1f s — not aggregating", done, ideal)
	}
	// Both interfaces must have carried substantial data.
	w := c.SubflowByIface(energy.WiFi).BytesDelivered
	l := c.SubflowByIface(energy.LTE).BytesDelivered
	if w < 8*units.MB || l < 8*units.MB {
		t.Errorf("unbalanced split: wifi=%v lte=%v", w, l)
	}
}

func TestFasterThanSinglePath(t *testing.T) {
	run := func(two bool) float64 {
		e := newEnv(6, 6)
		c := New(e.eng, e.src, DefaultOptions())
		c.AddSubflow("wifi", energy.WiFi, e.wifi, nil, 0)
		if two {
			c.AddSubflow("lte", energy.LTE, e.lte, nil, 0)
		}
		done := -1.0
		c.Download(32*units.MB, func(at float64) { done = at })
		e.eng.Horizon = 400
		e.eng.Run()
		return done
	}
	single, multi := run(false), run(true)
	if single < 0 || multi < 0 {
		t.Fatal("a run did not complete")
	}
	if multi > single*0.75 {
		t.Errorf("MPTCP (%.1f s) not meaningfully faster than single path (%.1f s)", multi, single)
	}
}

func TestRequestQueueOrder(t *testing.T) {
	e := newEnv(10, 5)
	c := e.twoPath(DefaultOptions())
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		c.Enqueue(&Request{Size: 2 * units.MB, OnComplete: func(float64) { order = append(order, i) }})
	}
	e.eng.Horizon = 100
	e.eng.Run()
	if len(order) != 3 {
		t.Fatalf("completions = %v, want 3", order)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("requests completed out of order: %v", order)
		}
	}
	if !c.Done() {
		t.Error("Done() = false after all requests completed")
	}
}

func TestZeroSizeRequestCompletesImmediately(t *testing.T) {
	e := newEnv(10, 5)
	c := e.twoPath(DefaultOptions())
	fired := false
	c.Enqueue(&Request{Size: 0, OnComplete: func(float64) { fired = true }})
	if !fired {
		t.Error("zero-size request did not complete synchronously")
	}
}

func TestBackupSubflowCarriesNothing(t *testing.T) {
	e := newEnv(10, 5)
	c := e.twoPath(DefaultOptions())
	lte := c.SubflowByIface(energy.LTE)
	// Put LTE in backup before any data flows.
	c.SetBackup(lte, true)
	c.Download(16*units.MB, nil)
	e.eng.Horizon = 120
	e.eng.Run()
	if lte.BytesDelivered != 0 {
		t.Errorf("backup subflow delivered %v", lte.BytesDelivered)
	}
	if c.SubflowByIface(energy.WiFi).BytesDelivered != 16*units.MB {
		t.Error("WiFi subflow did not carry the whole transfer")
	}
}

func TestBackupResumeCarriesData(t *testing.T) {
	e := newEnv(2, 8)
	c := e.twoPath(DefaultOptions())
	lte := c.SubflowByIface(energy.LTE)
	c.SetBackup(lte, true)
	c.Download(32*units.MB, nil)
	e.eng.RunUntil(10)
	before := lte.BytesDelivered
	c.SetBackup(lte, false)
	e.eng.RunUntil(60)
	if lte.BytesDelivered <= before {
		t.Error("resumed subflow carried no data")
	}
}

func TestSubflowByIfaceAndMeta(t *testing.T) {
	e := newEnv(10, 5)
	c := e.twoPath(DefaultOptions())
	if got := Iface(c.SubflowByIface(energy.LTE)); got != energy.LTE {
		t.Errorf("Iface = %v, want LTE", got)
	}
	if c.SubflowByIface(energy.Cell3G) != nil {
		t.Error("SubflowByIface for absent interface should be nil")
	}
	var bare tcp.Subflow
	if Iface(&bare) != -1 {
		t.Error("Iface of unbound subflow should be -1")
	}
}

func TestOnDeliveredMetering(t *testing.T) {
	e := newEnv(10, 5)
	c := e.twoPath(DefaultOptions())
	var perIface [energy.NumInterfaces]units.ByteSize
	c.OnDelivered = func(sf *tcp.Subflow, iface energy.Interface, n units.ByteSize) {
		perIface[iface] += n
	}
	c.Download(8*units.MB, nil)
	e.eng.Horizon = 60
	e.eng.Run()
	total := perIface[energy.WiFi] + perIface[energy.LTE]
	if diff := float64(total - 8*units.MB); diff > 1 || diff < -1 {
		t.Errorf("metered %v, want 8 MB", total)
	}
	if diff := float64(total - c.Delivered()); diff > 1 || diff < -1 {
		t.Errorf("metered %v != Delivered() %v", total, c.Delivered())
	}
}

func TestIdleDetection(t *testing.T) {
	e := newEnv(10, 5)
	c := e.twoPath(DefaultOptions())
	c.Download(units.MB, nil)
	e.eng.RunUntil(30)
	if !c.Done() {
		t.Fatal("download incomplete")
	}
	if !c.IdleFor(1) {
		t.Error("connection should be idle after completion")
	}
	// Enqueue more: activity resumes.
	c.Download(units.MB, nil)
	e.eng.RunUntil(31)
	if c.IdleFor(1) {
		t.Error("connection should be active again")
	}
}

func TestLIAIsLessAggressiveThanUncoupled(t *testing.T) {
	// On a shared-bottleneck-like setup, LIA's coupled increase must be
	// at most Reno's per subflow, and it must be the shared cc.Linked
	// value over the connection's established subflows.
	e := newEnv(10, 10)
	c := e.twoPath(Options{Coupling: cc.LIA, SubflowConfig: tcp.DefaultConfig()})
	c.Download(256*units.MB, nil)
	e.eng.RunUntil(5)
	cs := (*connSource)(c)
	var lia cc.Linked
	for _, sf := range c.Subflows() {
		if sf.State() != tcp.Established {
			t.Fatalf("%s not established at t=5", sf.ID)
		}
		lia.Add(sf.Cwnd(), sf.SRTT())
	}
	for _, sf := range c.Subflows() {
		inc := cs.IncreasePerRTT(sf)
		if inc <= 0 || inc > 1 {
			t.Errorf("LIA increase for %s = %v, want (0,1]", sf.ID, inc)
		}
		if want := lia.PerRound(sf.Cwnd()); inc != want {
			t.Errorf("LIA increase for %s = %v, cc.Linked.PerRound = %v", sf.ID, inc, want)
		}
	}
}

func TestUncoupledIncreaseIsOne(t *testing.T) {
	e := newEnv(10, 10)
	c := e.twoPath(Options{Coupling: cc.Uncoupled, SubflowConfig: tcp.DefaultConfig()})
	c.Download(units.MB, nil)
	e.eng.RunUntil(2)
	cs := (*connSource)(c)
	sf := c.Subflows()[0]
	if got, want := cs.IncreasePerRTT(sf), (cc.Linked{}).PerRound(sf.Cwnd()); got != 1 || got != want {
		t.Errorf("uncoupled increase = %v, want 1 (the empty cc.Linked's %v)", got, want)
	}
}

func TestDeadPathReinjection(t *testing.T) {
	// WiFi dies mid-transfer: the stranded bytes must be re-offered and
	// the transfer must finish over LTE.
	eng := sim.New()
	src := simrng.New(9)
	wifiCap := link.NewTrace(eng, []link.Breakpoint{
		{At: 0, Rate: units.MbpsRate(10)},
		{At: 5, Rate: 0},
	})
	wifi := &tcp.Path{Name: "wifi", Capacity: wifiCap, BaseRTT: 0.03}
	lte := &tcp.Path{Name: "lte", Capacity: link.NewConstant(units.MbpsRate(8)), BaseRTT: 0.07}
	c := New(eng, src, DefaultOptions())
	c.AddSubflow("wifi", energy.WiFi, wifi, nil, 0)
	c.AddSubflow("lte", energy.LTE, lte, nil, 0)
	done := -1.0
	c.Download(32*units.MB, func(at float64) { done = at })
	eng.Horizon = 300
	eng.Run()
	if done < 0 {
		t.Fatal("transfer stranded after WiFi death")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() float64 {
		e := newEnv(9, 7)
		c := e.twoPath(DefaultOptions())
		done := -1.0
		c.Download(16*units.MB, func(at float64) { done = at })
		e.eng.Horizon = 120
		e.eng.Run()
		return done
	}
	if a, b := run(), run(); a != b {
		t.Errorf("runs differ: %v vs %v", a, b)
	}
}

func TestConnectionString(t *testing.T) {
	e := newEnv(10, 5)
	c := e.twoPath(DefaultOptions())
	if s := c.String(); s == "" {
		t.Error("empty String()")
	}
}

func TestDelayedSubflowEstablishment(t *testing.T) {
	// A subflow added with extraDelay must not deliver anything before
	// the delay elapses — the primitive under eMPTCP's delayed
	// establishment.
	e := newEnv(5, 8)
	c := New(e.eng, e.src, DefaultOptions())
	c.AddSubflow("wifi", energy.WiFi, e.wifi, nil, 0)
	c.Download(64*units.MB, nil)
	e.eng.RunUntil(3)
	lte := c.AddSubflow("lte", energy.LTE, e.lte, nil, 2.0)
	e.eng.RunUntil(4.9)
	if lte.State() == tcp.Established {
		t.Error("delayed subflow established too early")
	}
	if lte.BytesDelivered != 0 {
		t.Error("delayed subflow delivered before establishment")
	}
	e.eng.RunUntil(60)
	if lte.BytesDelivered == 0 {
		t.Error("delayed subflow never carried data")
	}
}

// A bounded receive buffer with strong RTT asymmetry produces multipath
// head-of-line blocking: the slow path's in-flight data caps the window,
// throttling the fast path (Chen et al. [4]). With an unlimited buffer
// the same setup aggregates cleanly.
func TestReceiveBufferHeadOfLineBlocking(t *testing.T) {
	run := func(rb units.ByteSize) float64 {
		eng := sim.New()
		src := simrng.New(17)
		fast := &tcp.Path{Name: "wifi", Capacity: link.NewConstant(units.MbpsRate(10)), BaseRTT: 0.03}
		slow := &tcp.Path{Name: "lte", Capacity: link.NewConstant(units.MbpsRate(8)), BaseRTT: 0.6}
		opts := DefaultOptions()
		opts.ReceiveBuffer = rb
		c := New(eng, src, opts)
		c.AddSubflow("wifi", energy.WiFi, fast, nil, 0)
		c.AddSubflow("lte", energy.LTE, slow, nil, 0)
		done := -1.0
		c.Download(16*units.MB, func(at float64) { done = at })
		eng.Horizon = 600
		eng.Run()
		if done < 0 {
			t.Fatal("download incomplete")
		}
		return done
	}
	unlimited := run(0)
	tiny := run(128 * units.KB)
	if tiny < unlimited*1.3 {
		t.Errorf("128 KB receive buffer (%.1f s) should be much slower than unlimited (%.1f s)", tiny, unlimited)
	}
	// A buffer sized well above the slow path's BDP restores most of the
	// aggregation benefit.
	big := run(8 * units.MB)
	if big > unlimited*1.2 {
		t.Errorf("8 MB buffer (%.1f s) should approach unlimited (%.1f s)", big, unlimited)
	}
}

func TestReceiveBufferStillCompletes(t *testing.T) {
	// Even a pathologically small buffer must not deadlock.
	eng := sim.New()
	src := simrng.New(18)
	p1 := &tcp.Path{Name: "a", Capacity: link.NewConstant(units.MbpsRate(5)), BaseRTT: 0.05}
	opts := DefaultOptions()
	opts.ReceiveBuffer = 8 * units.KB
	c := New(eng, src, opts)
	c.AddSubflow("a", energy.WiFi, p1, nil, 0)
	done := -1.0
	c.Download(units.MB, func(at float64) { done = at })
	eng.Horizon = 600
	eng.Run()
	if done < 0 {
		t.Error("tiny-buffer download deadlocked")
	}
}

// §2.1: "if each host has two interfaces, an MPTCP connection consists of
// four subflows." The connection layer handles any subflow count; verify
// four-path aggregation against a dual-homed server.
func TestFourSubflowAggregation(t *testing.T) {
	eng := sim.New()
	src := simrng.New(23)
	mk := func(name string, mbps, rtt float64) *tcp.Path {
		return &tcp.Path{Name: name, Capacity: link.NewConstant(units.MbpsRate(mbps)), BaseRTT: rtt}
	}
	c := New(eng, src, DefaultOptions())
	// Client WiFi/LTE × server eth0/eth1: four end-to-end paths.
	c.AddSubflow("wifi-eth0", energy.WiFi, mk("wifi-eth0", 5, 0.03), nil, 0)
	c.AddSubflow("wifi-eth1", energy.WiFi, mk("wifi-eth1", 4, 0.04), nil, 0)
	c.AddSubflow("lte-eth0", energy.LTE, mk("lte-eth0", 3, 0.07), nil, 0)
	c.AddSubflow("lte-eth1", energy.LTE, mk("lte-eth1", 3, 0.08), nil, 0)
	done := -1.0
	c.Download(32*units.MB, func(at float64) { done = at })
	eng.Horizon = 300
	eng.Run()
	if done < 0 {
		t.Fatal("download incomplete")
	}
	ideal := units.MbpsRate(15).TimeToSend(32 * units.MB).Seconds()
	if done > ideal*1.5 {
		t.Errorf("four subflows took %.1f s, aggregate-ideal %.1f s", done, ideal)
	}
	for _, sf := range c.Subflows() {
		if sf.BytesDelivered < 2*units.MB {
			t.Errorf("subflow %s carried only %v", sf.ID, sf.BytesDelivered)
		}
	}
}

// Property: byte conservation — whatever the subflow count, link rates
// and suspend/resume pattern, a completed connection delivered exactly
// what was enqueued, and per-subflow deliveries sum to the total.
func TestConservationProperty(t *testing.T) {
	f := func(nRaw, rateRaw, suspendRaw uint8, seed int64) bool {
		eng := sim.New()
		src := simrng.New(seed)
		c := New(eng, src, DefaultOptions())
		n := int(nRaw%3) + 1
		for i := 0; i < n; i++ {
			mbps := float64((int(rateRaw)+i*37)%80)/10 + 1
			p := &tcp.Path{
				Name:     "p",
				Capacity: link.NewConstant(units.MbpsRate(mbps)),
				BaseRTT:  0.02 + float64(i)*0.03,
			}
			c.AddSubflow("sf", energy.WiFi, p, nil, 0)
		}
		size := units.ByteSize(int(suspendRaw)+1) * 64 * units.KB
		done := false
		c.Download(size, func(float64) { done = true })
		// Suspend/resume a subflow mid-transfer.
		eng.After(0.5, func() {
			sf := c.Subflows()[int(suspendRaw)%n]
			sf.Suspend()
			eng.After(1, sf.Resume)
		})
		eng.Horizon = 600
		eng.Run()
		if !done {
			return false
		}
		var sum units.ByteSize
		for _, sf := range c.Subflows() {
			sum += sf.BytesDelivered
		}
		d1 := float64(sum - c.Delivered())
		d2 := float64(c.Delivered() - size)
		return d1 < 1 && d1 > -1 && d2 < 1 && d2 > -1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Scarce data follows the min-RTT scheduler rule: a small object on a
// two-path connection rides the low-RTT subflow, like the Linux MPTCP
// scheduler the paper describes (§4.4, §3.6).
func TestMinRTTSchedulingForSmallObjects(t *testing.T) {
	eng := sim.New()
	src := simrng.New(27)
	fast := &tcp.Path{Name: "wifi", Capacity: link.NewConstant(units.MbpsRate(10)), BaseRTT: 0.03}
	slow := &tcp.Path{Name: "lte", Capacity: link.NewConstant(units.MbpsRate(10)), BaseRTT: 0.4}
	c := New(eng, src, DefaultOptions())
	wifi := c.AddSubflow("wifi", energy.WiFi, fast, nil, 0)
	lte := c.AddSubflow("lte", energy.LTE, slow, nil, 0)
	// Let both establish and measure their RTTs on a first transfer.
	c.Download(2*units.MB, nil)
	eng.RunUntil(20)
	lteBase := lte.BytesDelivered
	// A stream of small objects: each fits inside the WiFi window.
	for i := 0; i < 20; i++ {
		c.Download(32*units.KB, nil)
		eng.RunUntil(20 + float64(i+1))
	}
	if !c.Done() {
		t.Fatal("objects incomplete")
	}
	lteSmall := lte.BytesDelivered - lteBase
	if lteSmall > 64*units.KB {
		t.Errorf("high-RTT subflow carried %v of the small objects; min-RTT preference should keep them on WiFi", lteSmall)
	}
	if wifi.BytesDelivered < 500*units.KB {
		t.Errorf("WiFi carried only %v", wifi.BytesDelivered)
	}
}

// §3.6's RTT-zeroing: a resumed fast-reuse subflow reports ~zero RTT, so
// the scheduler probes it immediately instead of starving it.
func TestResumedSubflowReprobedViaRTTZero(t *testing.T) {
	eng := sim.New()
	src := simrng.New(28)
	fast := &tcp.Path{Name: "wifi", Capacity: link.NewConstant(units.MbpsRate(3)), BaseRTT: 0.03}
	slow := &tcp.Path{Name: "lte", Capacity: link.NewConstant(units.MbpsRate(8)), BaseRTT: 0.4}
	cfg := tcp.DefaultConfig()
	cfg.DisableIdleCwndReset = true
	c := New(eng, src, DefaultOptions())
	c.AddSubflow("wifi", energy.WiFi, fast, nil, 0)
	lte := c.AddSubflow("lte", energy.LTE, slow, &cfg, 0)
	c.Download(64*units.MB, nil)
	eng.RunUntil(5)
	c.SetBackup(lte, true)
	eng.RunUntil(10)
	if got := lte.SRTT(); got < 0.3 {
		t.Fatalf("precondition: LTE SRTT = %v, want ~0.4", got)
	}
	c.SetBackup(lte, false)
	if got := lte.SRTT(); got > 0.01 {
		t.Errorf("resumed fast-reuse SRTT = %v, want ~0 (§3.6)", got)
	}
	before := lte.BytesDelivered
	eng.RunUntil(12)
	if lte.BytesDelivered <= before {
		t.Error("resumed subflow was not re-probed with data")
	}
	// Data rounds re-measure the true RTT.
	eng.RunUntil(20)
	if got := lte.SRTT(); got < 0.1 {
		t.Errorf("SRTT after re-probing = %v, want re-measured ~0.4", got)
	}
}
