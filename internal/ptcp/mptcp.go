package ptcp

import (
	"math"

	"repro/internal/cc"
	"repro/internal/sim"
	"repro/internal/units"
)

// MPConfig parameterizes a packet-level MPTCP connection.
type MPConfig struct {
	// Config applies to every subflow.
	Config
	// Coupling selects uncoupled Reno or LIA congestion avoidance. Under
	// LIA the per-ACK increase on subflow i is min(alpha/cwnd_total,
	// 1/cwnd_i), with alpha recomputed from live windows and RTTs — the
	// packet-granular counterpart of internal/mptcp's per-round increase.
	Coupling cc.Coupling
}

// DefaultMPConfig couples DefaultConfig subflows with LIA, matching
// internal/mptcp's defaults.
func DefaultMPConfig() MPConfig {
	return MPConfig{Config: DefaultConfig(), Coupling: cc.LIA}
}

// MPResult reports a finished (or horizon-cut) multipath transfer.
type MPResult struct {
	// Completed reports whether every byte reached the connection-level
	// in-order delivery point.
	Completed bool
	// FinishedAt is when the last byte was delivered in order.
	FinishedAt float64
	// Delivered counts bytes delivered in order at the connection level.
	Delivered units.ByteSize
	// Reordered counts segments that arrived above the in-order point and
	// had to wait in the connection-level reorder buffer.
	Reordered int
	// MaxReorderDepth is the peak reorder-buffer occupancy in segments —
	// the receive-buffer pressure a DSS implementation would see.
	MaxReorderDepth int
	// Retransmits, FastRecoveries, Timeouts, and Packets aggregate the
	// per-subflow counters.
	Retransmits    int
	FastRecoveries int
	Timeouts       int
	Packets        int
	// Subflows holds per-subflow detail: loss/retransmission counters and
	// Delivered (the in-order bytes that subflow carried). Completed and
	// FinishedAt are connection-level notions and stay zero here.
	Subflows []Result
}

// mpSubflow is one sender plus its connection bookkeeping: establishment
// state for the scheduler and the count of segments it carried to the
// in-order point.
type mpSubflow struct {
	sender
	c           *conn
	established bool
	segsCarried int
	carriedLast bool   // carried the final (possibly short) segment
	startFn     func() // pre-bound handshake completion, created once
}

// start completes the subflow's handshake and opens its pipe.
func (sf *mpSubflow) start() {
	sf.established = true
	sf.send()
}

// conn is a packet-level MPTCP connection: the shared data pool, the
// per-packet min-RTT scheduler, and the connection-level reorder buffer
// tracking DSS-style in-order delivery.
type conn struct {
	eng       *sim.Engine
	cfg       MPConfig
	totalSegs int
	subs      []*mpSubflow
	active    int // subflows in use this run (subs is pooled and may be longer)

	nextAssign int     // next connection segment not yet bound to a subflow
	inOrder    int     // connection-level in-order delivery point
	rcv        bitring // delivered segments above inOrder
	buffered   int     // current reorder-buffer occupancy
	reordered  int
	maxDepth   int

	done       bool
	finishedAt float64
}

// next implements sink: it is the per-packet scheduler. Data goes to the
// lowest-RTT established subflow with window space first — if that is not
// the asker, the faster subflow is filled immediately and the asker only
// gets a segment once every faster window is full. This is the
// packet-granular counterpart of internal/mptcp's min-RTT scheduler
// (which defers a whole round while a faster subflow has room).
func (c *conn) next(s *sender) int {
	if c.done || c.nextAssign >= c.totalSegs {
		return -1
	}
	for {
		best := c.bestAvailable()
		if best == nil || &best.sender == s {
			break
		}
		// A faster subflow has window space: fill it first. Its send loop
		// re-enters next and terminates here (it is then the best
		// available itself), assigning at least one segment, so this
		// loop makes progress while data remains.
		best.send()
		if c.done || c.nextAssign >= c.totalSegs {
			return -1
		}
	}
	seq := c.nextAssign
	c.nextAssign++
	return seq
}

// bestAvailable returns the established subflow with window space that has
// the lowest smoothed RTT (ties to the earlier subflow), or nil.
func (c *conn) bestAvailable() *mpSubflow {
	var best *mpSubflow
	for _, sf := range c.subs[:c.active] {
		if !sf.established || sf.inFlightCount >= int(sf.cwnd) {
			continue
		}
		if best == nil || sf.srtt < best.srtt {
			best = sf
		}
	}
	return best
}

// advanced implements sink: one segment reached a subflow's cumulative ACK
// point, i.e. the receiver holds it. Deliver it to the connection-level
// reorder buffer and advance the DSS in-order point.
func (c *conn) advanced(s *sender, connSeq int) {
	sf := (*mpSubflow)(nil)
	for _, cand := range c.subs[:c.active] {
		if &cand.sender == s {
			sf = cand
			break
		}
	}
	sf.segsCarried++
	if connSeq == c.totalSegs-1 {
		sf.carriedLast = true
	}
	if c.done {
		return
	}
	switch {
	case connSeq == c.inOrder:
		c.inOrder++
		for c.buffered > 0 && c.rcv.get(c.inOrder) {
			c.rcv.clear(c.inOrder)
			c.inOrder++
			c.buffered--
		}
		if c.inOrder >= c.totalSegs {
			c.done = true
			c.finishedAt = c.eng.Now()
			c.eng.Stop()
		}
	case connSeq > c.inOrder:
		// Out-of-order arrival: park it. Each connection segment is
		// assigned to exactly one subflow and advanced once, so the slot
		// is always fresh.
		c.ensureRcvCap(connSeq)
		c.rcv.set(connSeq)
		c.buffered++
		c.reordered++
		if c.buffered > c.maxDepth {
			c.maxDepth = c.buffered
		}
	}
}

// ensureRcvCap grows the reorder bitset until connSeq fits above the
// in-order point; live bits are confined to [inOrder, nextAssign).
func (c *conn) ensureRcvCap(connSeq int) {
	bits := c.rcv.capBits()
	if connSeq-c.inOrder < bits {
		return
	}
	for connSeq-c.inOrder >= bits {
		bits <<= 1
	}
	c.rcv.grow(bits, c.inOrder, c.nextAssign)
}

// finished implements sink: completion is a connection-level notion
// (the in-order point), latched in advanced; a done connection stops
// every subflow's processing.
func (c *conn) finished(*sender) bool { return c.done }

// caIncrease implements sink: plain Reno when uncoupled (an empty
// cc.Linked), RFC 6356 LIA otherwise, with alpha recomputed from the live
// windows and smoothed RTTs of established subflows, exactly as
// internal/mptcp's IncreasePerRTT does per round.
func (c *conn) caIncrease(s *sender) float64 {
	var lia cc.Linked
	if c.cfg.Coupling != cc.Uncoupled {
		for _, sf := range c.subs[:c.active] {
			if sf.established {
				lia.Add(sf.cwnd, sf.srtt)
			}
		}
	}
	return lia.PerACK(s.cwnd)
}

var connPool freeList[conn]

// RunMPTCP transfers size bytes over links — one subflow per link — and
// returns the connection-level result. Each subflow completes a 2·OWD
// handshake on its own path before sending (the shortest-RTT subflow
// starts first, as a SYN on every path at t=0 would). The engine's
// Horizon (if set) bounds the run. Connection state is reused through
// a free list: repeated runs allocate nothing in steady state.
func RunMPTCP(eng *sim.Engine, cfg MPConfig, links []Link, size units.ByteSize) MPResult {
	if len(links) == 0 {
		panic("ptcp: RunMPTCP needs at least one link")
	}
	if cfg.MSS <= 0 || cfg.InitialWindow <= 0 {
		panic("ptcp: invalid configuration")
	}
	for _, l := range links {
		if l.Rate <= 0 || l.QueuePackets <= 0 {
			panic("ptcp: invalid configuration")
		}
	}
	c := connPool.get()
	c.eng = eng
	c.cfg = cfg
	c.totalSegs = int(math.Ceil(float64(size) / float64(cfg.MSS)))
	for len(c.subs) < len(links) {
		sf := &mpSubflow{}
		sf.startFn = sf.start
		c.subs = append(c.subs, sf)
	}
	c.active = len(links)
	c.nextAssign, c.inOrder = 0, 0
	c.rcv.init(initialWindowBits)
	c.buffered, c.reordered, c.maxDepth = 0, 0, 0
	c.done = false
	c.finishedAt = 0

	for i, l := range links {
		sf := c.subs[i]
		sf.c = c
		sf.established = false
		sf.segsCarried = 0
		sf.carriedLast = false
		sf.sender.reset(eng, cfg.Config, l, c, true)
		eng.Schedule(l.OneWayDelay+l.OneWayDelay, sf.startFn)
	}
	eng.Run()

	res := MPResult{
		Completed:       c.done || c.inOrder >= c.totalSegs, // empty transfers never enter advanced
		FinishedAt:      c.finishedAt,
		Reordered:       c.reordered,
		MaxReorderDepth: c.maxDepth,
		Subflows:        make([]Result, c.active),
	}
	res.Delivered = units.ByteSize(c.inOrder) * cfg.MSS
	if res.Delivered > size {
		res.Delivered = size
	}
	lastShort := units.ByteSize(c.totalSegs)*cfg.MSS - size // 0 for MSS-aligned sizes
	for i, sf := range c.subs[:c.active] {
		r := &res.Subflows[i]
		*r = sf.res
		r.Delivered = units.ByteSize(sf.segsCarried) * cfg.MSS
		if sf.carriedLast {
			r.Delivered -= lastShort
		}
		res.Retransmits += r.Retransmits
		res.FastRecoveries += r.FastRecoveries
		res.Timeouts += r.Timeouts
		res.Packets += r.Packets
	}
	c.eng = nil // a parked connection must not keep the engine alive
	for _, sf := range c.subs[:c.active] {
		sf.eng = nil
	}
	connPool.put(c)
	return res
}
