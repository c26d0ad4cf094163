package ptcp

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

// refFlow is the scalar reference implementation: the map-per-segment,
// closure-per-packet prototype the optimized kernel replaced, kept here
// verbatim as the behavioural oracle — with the two satellite fixes this
// PR made to both implementations (per-segment go-back-N retransmit
// accounting and the RFC 6298 RTO estimator) applied transparently. The
// optimized kernel must reproduce it bit for bit on every input; see
// FuzzKernelMatchesReference. TestScalarGridGolden separately pins both
// to the pre-PR prototype on its timeout-free grid, where the satellite
// fixes are provably Result-invariant.
type refFlow struct {
	eng  *sim.Engine
	cfg  Config
	link Link

	totalSegs   int
	nextSeq     int
	highestAck  int
	maxSent     int
	cwnd        float64
	ssthresh    float64
	dupAcks     int
	inRecovery  bool
	recoverSeq  int
	rtx         map[int]bool
	rtxCursor   int
	queueFreeAt float64
	inFlight    map[int]bool
	acked       map[int]bool
	rtoEv       sim.Event
	srtt        float64
	rttvar      float64
	res         Result
}

// refRun is the reference Run.
func refRun(eng *sim.Engine, cfg Config, link Link, size units.ByteSize) Result {
	f := &refFlow{
		eng:       eng,
		cfg:       cfg,
		link:      link,
		totalSegs: int(math.Ceil(float64(size) / float64(cfg.MSS))),
		cwnd:      cfg.InitialWindow,
		ssthresh:  cfg.MaxWindow,
		inFlight:  map[int]bool{},
		acked:     map[int]bool{},
		srtt:      2 * link.OneWayDelay,
	}
	f.rttvar = f.srtt / 2
	f.send()
	eng.Run()
	f.res.Completed = f.highestAck >= f.totalSegs
	f.res.Delivered = units.ByteSize(f.highestAck) * cfg.MSS
	if f.res.Delivered > size {
		f.res.Delivered = size
	}
	return f.res
}

func (f *refFlow) txTime() float64 {
	return f.cfg.MSS.Bits() / float64(f.link.Rate)
}

func (f *refFlow) rto() float64 {
	return math.Max(f.cfg.MinRTO, f.srtt+4*f.rttvar)
}

func (f *refFlow) send() {
	for len(f.inFlight) < int(f.cwnd) && f.nextSeq < f.totalSegs {
		f.transmit(f.nextSeq)
		f.nextSeq++
	}
	f.armRTO()
}

func (f *refFlow) transmit(seq int) {
	now := f.eng.Now()
	f.res.Packets++
	if seq < f.maxSent {
		f.res.Retransmits++
	} else {
		f.maxSent = seq + 1
	}
	f.inFlight[seq] = true
	start := math.Max(now, f.queueFreeAt)
	queued := (start - now) / f.txTime()
	if int(queued) >= f.link.QueuePackets {
		return
	}
	depart := start + f.txTime()
	f.queueFreeAt = depart
	arrive := depart + f.link.OneWayDelay
	ackAt := arrive + f.link.OneWayDelay
	f.eng.Schedule(ackAt, func() { f.onAck(seq, ackAt-now) })
}

func (f *refFlow) onAck(seq int, rttSample float64) {
	delete(f.inFlight, seq)
	f.acked[seq] = true
	d := f.srtt - rttSample
	if d < 0 {
		d = -d
	}
	f.rttvar = 0.75*f.rttvar + 0.25*d
	f.srtt = 0.875*f.srtt + 0.125*rttSample

	if seq < f.highestAck {
		return
	}
	advanced := false
	for f.highestAck < f.totalSegs && f.acked[f.highestAck] {
		f.highestAck++
		advanced = true
	}
	if !advanced {
		f.onDupAck()
		return
	}
	f.dupAcks = 0
	if f.inRecovery {
		if f.highestAck >= f.recoverSeq {
			f.inRecovery = false
			f.cwnd = f.ssthresh
		} else {
			f.retransmitNextHole()
		}
	}
	if f.highestAck >= f.totalSegs {
		f.res.FinishedAt = f.eng.Now()
		f.rtoEv.Cancel()
		f.eng.Stop()
		return
	}
	if !f.inRecovery {
		if f.cwnd < f.ssthresh {
			f.cwnd++
		} else {
			f.cwnd += 1 / f.cwnd
		}
		f.cwnd = math.Min(f.cwnd, f.cfg.MaxWindow)
	}
	f.send()
}

func (f *refFlow) onDupAck() {
	f.dupAcks++
	switch {
	case f.dupAcks == 3 && !f.inRecovery:
		f.res.FastRecoveries++
		f.inRecovery = true
		f.recoverSeq = f.nextSeq
		f.ssthresh = math.Max(f.cwnd/2, 2)
		f.cwnd = f.ssthresh
		f.rtx = map[int]bool{}
		f.rtxCursor = f.highestAck
		f.retransmitNextHole()
	case f.inRecovery:
		f.retransmitNextHole()
	}
	f.armRTO()
}

func (f *refFlow) retransmitNextHole() {
	if f.rtxCursor < f.highestAck {
		f.rtxCursor = f.highestAck
	}
	for f.rtxCursor < f.recoverSeq {
		seq := f.rtxCursor
		f.rtxCursor++
		if !f.acked[seq] && !f.rtx[seq] {
			f.rtx[seq] = true
			f.transmit(seq)
			return
		}
	}
	f.send()
}

func (f *refFlow) armRTO() {
	f.rtoEv.Cancel()
	if f.highestAck >= f.totalSegs {
		return
	}
	f.rtoEv = f.eng.After(f.rto(), f.onRTO)
}

func (f *refFlow) onRTO() {
	if f.highestAck >= f.totalSegs {
		return
	}
	f.res.Timeouts++
	f.ssthresh = math.Max(f.cwnd/2, 2)
	f.cwnd = 1
	f.inRecovery = false
	f.dupAcks = 0
	f.inFlight = map[int]bool{}
	f.nextSeq = f.highestAck
	f.send()
}

// clampFuzz maps arbitrary fuzz inputs into a valid, bounded scenario.
func clampFuzz(rateMbps, rttMs float64, sizeKB, queue, iw int) (Link, Config, units.ByteSize, bool) {
	if math.IsNaN(rateMbps) || math.IsInf(rateMbps, 0) || math.IsNaN(rttMs) || math.IsInf(rttMs, 0) {
		return Link{}, Config{}, 0, false
	}
	rate := math.Min(math.Max(rateMbps, 0.5), 200)
	rtt := math.Min(math.Max(rttMs, 1), 400) / 1000
	size := units.ByteSize(min(max(sizeKB, 1), 8192)) * units.KB
	q := min(max(queue, 4), 512)
	cfg := DefaultConfig()
	cfg.InitialWindow = float64(min(max(iw, 1), 64))
	return Link{Rate: units.MbpsRate(rate), OneWayDelay: rtt / 2, QueuePackets: q}, cfg, size, true
}

// FuzzKernelMatchesReference is the strongest equivalence check: on any
// clamped scenario — timeout and loss regimes included — the optimized
// kernel's Result must equal the scalar reference's bit for bit
// (FinishedAt compared as float64 bits via struct equality).
func FuzzKernelMatchesReference(f *testing.F) {
	f.Add(10.0, 50.0, 4096, 64, 10)
	f.Add(2.0, 20.0, 1024, 32, 10)
	f.Add(0.7, 300.0, 512, 4, 1)    // tiny queue: timeout-heavy
	f.Add(50.0, 100.0, 8192, 8, 64) // overshoot into mass drops
	f.Add(1.0, 1.0, 16, 4, 3)
	f.Fuzz(func(t *testing.T, rateMbps, rttMs float64, sizeKB, queue, iw int) {
		link, cfg, size, ok := clampFuzz(rateMbps, rttMs, sizeKB, queue, iw)
		if !ok {
			t.Skip()
		}
		engRef := sim.New()
		engRef.Horizon = 900
		want := refRun(engRef, cfg, link, size)

		engOpt := sim.New()
		engOpt.Horizon = 900
		got := Run(engOpt, cfg, link, size)

		if got != want {
			t.Fatalf("kernel diverged from reference on rate=%g rtt=%g size=%v queue=%d iw=%v:\n got %+v\nwant %+v",
				rateMbps, rttMs, size, queue, cfg.InitialWindow, got, want)
		}
	})
}

// FuzzPacketInvariants checks the model's structural invariants on
// arbitrary clamped scenarios: delivery is bounded by the request,
// packet counts are bounded below by the segment count, completion
// implies an in-horizon finish, and completion time is monotone
// (within tolerance) in link rate.
func FuzzPacketInvariants(f *testing.F) {
	f.Add(10.0, 50.0, 4096, 64, 10)
	f.Add(1.5, 10.0, 64, 4, 2)
	f.Add(80.0, 200.0, 8192, 16, 32)
	f.Fuzz(func(t *testing.T, rateMbps, rttMs float64, sizeKB, queue, iw int) {
		link, cfg, size, ok := clampFuzz(rateMbps, rttMs, sizeKB, queue, iw)
		if !ok {
			t.Skip()
		}
		const horizon = 900
		eng := sim.New()
		eng.Horizon = horizon
		res := Run(eng, cfg, link, size)

		if res.Delivered > size {
			t.Fatalf("Delivered %v > size %v", res.Delivered, size)
		}
		segs := int(math.Ceil(float64(size) / float64(cfg.MSS)))
		if res.Completed {
			if res.Delivered != size {
				t.Fatalf("Completed with Delivered %v != size %v", res.Delivered, size)
			}
			if res.Packets < segs {
				t.Fatalf("Completed with Packets %d < %d segments", res.Packets, segs)
			}
			if res.FinishedAt <= 0 || res.FinishedAt > horizon {
				t.Fatalf("Completed with FinishedAt %v outside (0, %v]", res.FinishedAt, horizon)
			}
		}
		if res.Retransmits > res.Packets {
			t.Fatalf("Retransmits %d > Packets %d", res.Retransmits, res.Packets)
		}

		// Rate monotonicity: doubling the link rate must not slow the
		// transfer down. That is only a real invariant while no segment is
		// dropped — a faster link overshoots a small queue harder during
		// slow start, and the shifted drop pattern can cost extra recovery
		// episodes or a full MinRTO the slower link never pays (the fuzzer
		// found >10% slowdowns from both) — so the check is scoped to
		// pairs where neither run lost anything, where the dynamics are
		// deterministic window growth and strictly faster service.
		if res.Completed {
			eng2 := sim.New()
			eng2.Horizon = horizon
			link2 := link
			link2.Rate *= 2
			res2 := Run(eng2, cfg, link2, size)
			if !res2.Completed {
				t.Fatalf("doubling the rate lost completion (was %v)", res.FinishedAt)
			}
			lossFree := res.Retransmits == 0 && res.Timeouts == 0 &&
				res2.Retransmits == 0 && res2.Timeouts == 0
			if lossFree && res2.FinishedAt > res.FinishedAt*(1+1e-9) {
				t.Fatalf("doubling the rate slowed a loss-free transfer: %v -> %v", res.FinishedAt, res2.FinishedAt)
			}
		}
	})
}

// TestKernelMatchesReferenceTimeoutGrid locks the equivalence on a small
// deterministic grid biased into timeout territory (tiny queues, slow
// links), so the regimes the pinned pre-PR golden cannot cover — where
// the satellite fixes change Results — are exercised on every test run,
// not only under -fuzz.
func TestKernelMatchesReferenceTimeoutGrid(t *testing.T) {
	sawTimeout := false
	for _, rate := range []float64{0.8, 2, 10} {
		for _, rtt := range []float64{0.02, 0.2} {
			for _, queue := range []int{4, 8} {
				for _, sizeMB := range []int{1, 4} {
					link := Link{Rate: units.MbpsRate(rate), OneWayDelay: rtt / 2, QueuePackets: queue}
					size := units.ByteSize(sizeMB) * units.MB

					engRef := sim.New()
					engRef.Horizon = 900
					want := refRun(engRef, DefaultConfig(), link, size)

					engOpt := sim.New()
					engOpt.Horizon = 900
					got := Run(engOpt, DefaultConfig(), link, size)

					if got != want {
						t.Errorf("rate=%g rtt=%g queue=%d size=%dMB:\n got %+v\nwant %+v",
							rate, rtt, queue, sizeMB, got, want)
					}
					sawTimeout = sawTimeout || want.Timeouts > 0
				}
			}
		}
	}
	if !sawTimeout {
		t.Error("grid never triggered a timeout; it no longer covers the RTO path")
	}
}
