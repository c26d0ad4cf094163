// Package cc is the single home of the simulator's congestion-control
// arithmetic: the RFC 6356 linked increase (LIA), the Reno window
// response, the smoothed-RTT and retransmission-timeout estimators, the
// RFC 2861 idle reset, and the fluid round plan.
//
// Every function is pure over plain float64 values, so the fluid subflow
// (internal/tcp), the lockstep lanes (internal/lockstep), the MPTCP
// coupling (internal/mptcp) and the packet engine (internal/ptcp) share
// one implementation. The expressions keep the exact operand order and
// parenthesisation the engines were validated with: output bytes are the
// contract, and a reassociated product changes them.
package cc

// Coupling selects the congestion-avoidance coupling across the subflows
// of one connection.
type Coupling int

// Coupling modes.
const (
	// Uncoupled runs independent Reno on every subflow.
	Uncoupled Coupling = iota
	// LIA is the Linked-Increases Algorithm of RFC 6356, the default
	// coupled congestion control in the Linux MPTCP stack the paper uses.
	LIA
)

// Linked accumulates the RFC 6356 coupling sums over a connection's
// established subflows. The zero value is the uncoupled case: with
// nothing added, PerRound and PerACK return Reno's increase.
//
// alpha = cwnd_total · max_i(cwnd_i/rtt_i²) / (Σ_i cwnd_i/rtt_i)².
type Linked struct {
	total float64 // Σ cwnd_i
	sum   float64 // Σ cwnd_i/rtt_i
	best  float64 // max cwnd_i/rtt_i²
}

// Add folds one subflow's window w (segments) and smoothed RTT r
// (seconds) into the sums. A subflow without an RTT estimate (r ≤ 0) is
// skipped.
func (l *Linked) Add(w, r float64) {
	if r <= 0 {
		return
	}
	l.total += w
	l.sum += w / r
	if q := w / (r * r); q > l.best {
		l.best = q
	}
}

// PerRound returns the congestion-avoidance increase, in segments, over
// one round of cwnd ACKs: min(alpha·cwnd/cwnd_total, 1). Without usable
// sums it falls back to Reno's 1.
func (l Linked) PerRound(cwnd float64) float64 {
	if l.total <= 0 || l.sum <= 0 {
		return 1
	}
	alpha := l.total * l.best / (l.sum * l.sum)
	inc := alpha * cwnd / l.total
	return min(inc, 1)
}

// PerACK returns the congestion-avoidance increase for one ACK:
// min(alpha/cwnd_total, 1/cwnd). Without usable sums it falls back to
// Reno's 1/cwnd.
func (l Linked) PerACK(cwnd float64) float64 {
	if l.total <= 0 || l.sum <= 0 {
		return 1 / cwnd
	}
	inc := l.total * l.best / (l.sum * l.sum) / l.total // alpha / cwnd_total
	if o := 1 / cwnd; o < inc {
		inc = o
	}
	return inc
}

// Halve returns the slow-start threshold after a loss: half the window,
// never below two segments.
func Halve(cwnd float64) float64 { return max(cwnd/2, 2) }

// Avoiding reports whether a round that ended with (cwnd, ssthresh, lost)
// grows by the congestion-avoidance increase, so callers compute the
// (possibly coupled) increase only when Window will use it.
func Avoiding(cwnd, ssthresh float64, lost bool) bool { return !lost && cwnd >= ssthresh }

// Window applies one fluid round's congestion response: fast-recovery
// halving on loss, doubling up to ssthresh in slow start, or the
// congestion-avoidance increase inc. The result is clamped to maxWindow
// first and to one segment second.
func Window(cwnd, ssthresh float64, lost bool, inc, maxWindow float64) (newCwnd, newSsthresh float64) {
	if lost {
		ssthresh = Halve(cwnd)
		cwnd = ssthresh // fast recovery, not timeout
	} else if cwnd < ssthresh {
		cwnd = min(cwnd*2, ssthresh) // slow start
	} else {
		cwnd += inc
	}
	cwnd = min(cwnd, maxWindow)
	return max(cwnd, 1), ssthresh
}

// SRTT folds an RTT sample into the smoothed estimate with gain 1/8.
func SRTT(srtt, sample float64) float64 { return 0.875*srtt + 0.125*sample }

// RTO returns the fluid model's retransmission timeout: twice the
// smoothed RTT, floored at minRTO.
func RTO(minRTO, srtt float64) float64 { return max(minRTO, 2*srtt) }

// IdleReset applies the RFC 2861 window reset: after an idle period
// longer than rto the window restarts at initial, with ssthresh reopened
// to maxWindow. Otherwise (cwnd, ssthresh) pass through unchanged.
func IdleReset(cwnd, ssthresh, idle, rto, initial, maxWindow float64) (newCwnd, newSsthresh float64) {
	if idle > rto {
		return initial, maxWindow
	}
	return cwnd, ssthresh
}

// Plan computes one fluid round's transmission outcome for bits offered
// over a path whose share is share bit/s, with this round's jittered
// rtt: whether the offered load congests the share, and the round
// duration — the self-clocked RTT, stretched when the share cannot carry
// a full window per RTT.
func Plan(bits, rtt, share float64) (congested bool, dur float64) {
	return bits/rtt > share, max(rtt, bits/share)
}
