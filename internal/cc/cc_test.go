package cc

import (
	"math"
	"testing"
)

type sub struct{ w, r float64 }

func linked(subs ...sub) Linked {
	var l Linked
	for _, s := range subs {
		l.Add(s.w, s.r)
	}
	return l
}

// TestLinkedFallbacks pins the cases where LIA has no usable sums and
// must fall back to Reno's increase: 1 per round, 1/cwnd per ACK.
func TestLinkedFallbacks(t *testing.T) {
	cases := []struct {
		name string
		subs []sub
	}{
		{"uncoupled (nothing added)", nil},
		{"no eligible subflow (no RTT estimate)", []sub{{10, 0}, {20, -1}}},
		{"total <= 0", []sub{{0, 0.05}, {0, 0.1}}},
		{"total < 0", []sub{{-4, 0.05}}},
		{"sum <= 0", []sub{{10, 1}, {-5, 0.1}}},
	}
	for _, c := range cases {
		l := linked(c.subs...)
		for _, cwnd := range []float64{1, 7, 1024} {
			if got := l.PerRound(cwnd); got != 1 {
				t.Errorf("%s: PerRound(%v) = %v, want 1", c.name, cwnd, got)
			}
			if got, want := l.PerACK(cwnd), 1/cwnd; got != want {
				t.Errorf("%s: PerACK(%v) = %v, want %v", c.name, cwnd, got, want)
			}
		}
	}
}

// TestLinkedMatchesRFC6356 checks the coupled increase against the
// RFC 6356 formula written out directly, and its caps.
func TestLinkedMatchesRFC6356(t *testing.T) {
	// Variables, not constants: constant expressions fold exactly and
	// would not round like the float arithmetic under test.
	w1, r1, w2, r2 := 20.0, 0.03, 12.0, 0.09
	l := linked(sub{w1, r1}, sub{w2, r2}, sub{8, 0}) // the last has no RTT yet
	total := w1 + w2
	best := math.Max(w1/(r1*r1), w2/(r2*r2))
	sum := w1/r1 + w2/r2
	alpha := total * best / (sum * sum)
	for _, cwnd := range []float64{20, 12} {
		if got, want := l.PerRound(cwnd), math.Min(alpha*cwnd/total, 1); got != want {
			t.Errorf("PerRound(%v) = %v, want %v", cwnd, got, want)
		}
		if got, want := l.PerACK(cwnd), math.Min(alpha/total, 1/cwnd); got != want {
			t.Errorf("PerACK(%v) = %v, want %v", cwnd, got, want)
		}
	}
	// A lone subflow is plain Reno: alpha = 1, so the increase is exactly
	// Reno's (with a power-of-two RTT every quotient is exact).
	one := linked(sub{16, 0.5})
	if got := one.PerRound(16); got != 1 {
		t.Errorf("single-subflow PerRound = %v, want 1", got)
	}
	if got := one.PerACK(16); got != 1.0/16 {
		t.Errorf("single-subflow PerACK = %v, want 1/16", got)
	}
	// The caps: never more than Reno per round or per ACK.
	for _, cwnd := range []float64{1, 3, 50, 1000} {
		if got := l.PerRound(cwnd); got <= 0 || got > 1 {
			t.Errorf("PerRound(%v) = %v, want (0,1]", cwnd, got)
		}
		if got := l.PerACK(cwnd); got <= 0 || got > 1/cwnd {
			t.Errorf("PerACK(%v) = %v, want (0,1/cwnd]", cwnd, got)
		}
	}
}

// TestWindow covers the round response branches and the clamp order:
// MaxWindow first, then one segment.
func TestWindow(t *testing.T) {
	cases := []struct {
		name                   string
		cwnd, ssthresh         float64
		lost                   bool
		inc, maxWindow         float64
		wantCwnd, wantSsthresh float64
		wantAvoiding           bool
	}{
		{"loss halves", 40, 64, true, 9, 1024, 20, 20, false},
		{"loss floors ssthresh at 2", 3, 64, true, 9, 1024, 2, 2, false},
		{"slow start doubles", 10, 64, false, 9, 1024, 20, 64, false},
		{"slow start stops at ssthresh", 40, 64, false, 9, 1024, 64, 64, false},
		{"avoidance adds inc", 64, 64, false, 0.25, 1024, 64.25, 64, true},
		{"clamp at MaxWindow", 1000, 64, false, 30, 1024, 1024, 64, true},
		{"slow start clamps at MaxWindow", 800, 4096, false, 0, 1024, 1024, 4096, false},
		{"clamp at 1", 0.25, 0.25, false, 0.5, 1024, 1, 0.25, true},
		{"1 wins over MaxWindow < 1", 5, 5, false, 1, 0.5, 1, 5, true},
	}
	for _, c := range cases {
		if got := Avoiding(c.cwnd, c.ssthresh, c.lost); got != c.wantAvoiding {
			t.Errorf("%s: Avoiding = %v, want %v", c.name, got, c.wantAvoiding)
		}
		cwnd, ssthresh := Window(c.cwnd, c.ssthresh, c.lost, c.inc, c.maxWindow)
		if cwnd != c.wantCwnd || ssthresh != c.wantSsthresh {
			t.Errorf("%s: Window = (%v, %v), want (%v, %v)", c.name, cwnd, ssthresh, c.wantCwnd, c.wantSsthresh)
		}
	}
}

func TestEstimatorsAndResets(t *testing.T) {
	if got := Halve(9); got != 4.5 {
		t.Errorf("Halve(9) = %v", got)
	}
	if got := Halve(3); got != 2 {
		t.Errorf("Halve(3) = %v, want floor 2", got)
	}
	s, x := 0.1, 0.2
	if got := SRTT(s, x); got != 0.875*s+0.125*x {
		t.Errorf("SRTT = %v", got)
	}
	if got := RTO(1, 0.2); got != 1 {
		t.Errorf("RTO floor = %v, want MinRTO 1", got)
	}
	if got := RTO(1, 0.8); got != 1.6 {
		t.Errorf("RTO = %v, want 2·srtt 1.6", got)
	}
	if c, s := IdleReset(40, 30, 2, 1, 10, 1024); c != 10 || s != 1024 {
		t.Errorf("IdleReset after long idle = (%v, %v), want (10, 1024)", c, s)
	}
	if c, s := IdleReset(40, 30, 1, 1, 10, 1024); c != 40 || s != 30 {
		t.Errorf("IdleReset at idle == rto = (%v, %v), want unchanged", c, s)
	}
	// 1 Mbit offered in 0.1 s over a 5 Mbit/s share: congested, and the
	// round stretches to the 0.2 s the share needs.
	if congested, dur := Plan(1e6, 0.1, 5e6); !congested || dur != 0.2 {
		t.Errorf("Plan congested = (%v, %v), want (true, 0.2)", congested, dur)
	}
	if congested, dur := Plan(1e5, 0.1, 5e6); congested || dur != 0.1 {
		t.Errorf("Plan uncongested = (%v, %v), want (false, 0.1)", congested, dur)
	}
}
