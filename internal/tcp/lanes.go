package tcp

import "repro/internal/units"

// LaneVec is lane-striped subflow congestion state for the lockstep
// executor: the fluid-round hot-path fields of k same-scenario subflows
// held as structure-of-arrays slices, indexed sub*K+lane so one round-
// coalesced dispatch touches the live lanes of a subflow contiguously.
//
// The vector holds state only: the lockstep executor applies the same
// internal/cc arithmetic the scalar Subflow round loop uses to its
// elements. Bit-identity with the scalar path is the contract:
// FuzzLockstepEquivalence in internal/lockstep compares full per-seed
// Results against sequential scenario.Run calls.
type LaneVec struct {
	K int // lanes per subflow stripe

	State      []State
	Cwnd       []float64        // segments
	Ssthresh   []float64        // segments
	Srtt       []float64        // smoothed RTT estimate, seconds
	LastSendAt []float64        // end of the most recent active round
	HsRTT      []float64        // handshake RTT drawn at Connect
	Inflight   []units.ByteSize // bytes of the round in progress (0 when idle)
	InRound    []bool
	EverSent   []bool
}

// Resize shapes the vector for nSub subflow stripes of k lanes each,
// reusing slice capacity, and zeroes every element (the Closed state).
func (v *LaneVec) Resize(nSub, k int) {
	v.K = k
	n := nSub * k
	grow := func(s []float64) []float64 {
		if cap(s) < n {
			return make([]float64, n)
		}
		s = s[:n]
		for i := range s {
			s[i] = 0
		}
		return s
	}
	if cap(v.State) < n {
		v.State = make([]State, n)
		v.InRound = make([]bool, n)
		v.EverSent = make([]bool, n)
		v.Inflight = make([]units.ByteSize, n)
	} else {
		v.State = v.State[:n]
		v.InRound = v.InRound[:n]
		v.EverSent = v.EverSent[:n]
		v.Inflight = v.Inflight[:n]
		for i := range v.State {
			v.State[i] = Closed
			v.InRound[i] = false
			v.EverSent[i] = false
			v.Inflight[i] = 0
		}
	}
	v.Cwnd = grow(v.Cwnd)
	v.Ssthresh = grow(v.Ssthresh)
	v.Srtt = grow(v.Srtt)
	v.LastSendAt = grow(v.LastSendAt)
	v.HsRTT = grow(v.HsRTT)
}
