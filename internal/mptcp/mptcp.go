// Package mptcp models a Multi-Path TCP connection (§2.1 of the paper): a
// single application-visible byte stream split across TCP subflows, one
// per end-to-end interface pair, with coupled (LIA) congestion control and
// the MP_PRIO backup mechanism eMPTCP uses to suspend and resume paths.
//
// The connection is a pull system: each established subflow requests up to
// a congestion window of bytes per round from the shared transfer queue,
// so data flows over every non-backup subflow at the rate its own
// congestion control sustains — the behaviour of the Linux MPTCP
// scheduler once flows are window-limited. Requests (downloads) are
// queued in order, as over an HTTP/1.1 persistent connection.
package mptcp

import (
	"fmt"

	"repro/internal/cc"
	"repro/internal/energy"
	"repro/internal/sim"
	"repro/internal/simrng"
	"repro/internal/tcp"
	"repro/internal/trace"
	"repro/internal/units"
)

// SplitSubflow labels the RNG stream of a connection's first subflow,
// split from the connection's source; the i-th subflow (from 0) uses
// SplitSubflow+i.
const SplitSubflow uint64 = 0x5f

// Options configure a connection.
type Options struct {
	// Coupling selects uncoupled Reno or LIA across the subflows.
	Coupling cc.Coupling
	// SubflowConfig is the TCP configuration applied to subflows that do
	// not override it.
	SubflowConfig tcp.Config
	// ReceiveBuffer bounds the connection-level receive window: bytes
	// handed to subflows but not yet delivered in order. A slow subflow
	// holding early data then throttles the fast one — the multipath
	// head-of-line blocking measured by Chen et al. [4], which large
	// RTT asymmetry (e.g. an overseas LTE path) makes severe. Zero means
	// unlimited (the default; the paper's servers used large buffers).
	ReceiveBuffer units.ByteSize
	// Arena, when non-nil, allocates subflows from a recyclable arena
	// instead of the heap (per-run state pooling; see scenario.Run).
	Arena *tcp.Arena
}

// DefaultOptions returns the standard-MPTCP configuration.
func DefaultOptions() Options {
	return Options{Coupling: cc.LIA, SubflowConfig: tcp.DefaultConfig()}
}

// subflowMeta is stored in tcp.Subflow.Meta.
type subflowMeta struct {
	iface energy.Interface
}

// Request is one application transfer over the connection.
type Request struct {
	Size units.ByteSize
	// OnComplete fires when the last byte of this request is delivered.
	OnComplete func(at float64)

	cumEnd units.ByteSize // cumulative delivered offset that completes it
}

// Connection is an MPTCP connection.
type Connection struct {
	eng  *sim.Engine
	src  *simrng.Source
	opts Options

	subflows []*tcp.Subflow

	queued    units.ByteSize // cumulative bytes enqueued
	taken     units.ByteSize // cumulative bytes handed to subflows (minus returns)
	delivered units.ByteSize // cumulative bytes delivered
	requests  []*Request     // pending completion, in order

	lastActivity float64

	// OnDelivered, when non-nil, observes every delivery (the scenario
	// layer meters per-interface throughput with it).
	OnDelivered func(sf *tcp.Subflow, iface energy.Interface, n units.ByteSize)
}

// New returns an empty connection; add subflows with AddSubflow and start
// transfers with Enqueue.
func New(eng *sim.Engine, src *simrng.Source, opts Options) *Connection {
	return &Connection{eng: eng, src: src, opts: opts}
}

// AddSubflow creates a subflow over path bound to iface and starts its
// handshake after extraDelay seconds (radio promotion, or eMPTCP's
// deliberate establishment delay). A nil cfg uses the connection default.
func (c *Connection) AddSubflow(id string, iface energy.Interface, path *tcp.Path, cfg *tcp.Config, extraDelay float64) *tcp.Subflow {
	conf := c.opts.SubflowConfig
	if cfg != nil {
		conf = *cfg
	}
	var sf *tcp.Subflow
	src := c.src.Split(SplitSubflow + uint64(len(c.subflows)))
	if c.opts.Arena != nil {
		sf = c.opts.Arena.NewSubflow(id, c.eng, src, path, conf, (*connSource)(c))
	} else {
		sf = tcp.NewSubflow(id, c.eng, src, path, conf, (*connSource)(c))
	}
	sf.Meta = subflowMeta{iface: iface}
	// A join changes the LIA coupling set and the scheduler's choices:
	// stop any sibling's round batch at its next boundary.
	for _, other := range c.subflows {
		other.InvalidateBatch()
	}
	c.subflows = append(c.subflows, sf)
	if rec := c.eng.Recorder(); rec != nil {
		rec.Record(trace.Event{
			T: c.eng.Now(), Kind: trace.KindSubflow,
			Subflow: id, Iface: iface.String(), A: extraDelay,
		})
	}
	sf.Connect(extraDelay)
	return sf
}

// Subflows returns the connection's subflows in creation order.
func (c *Connection) Subflows() []*tcp.Subflow { return c.subflows }

// SubflowByIface returns the first subflow on the given interface, or nil.
func (c *Connection) SubflowByIface(iface energy.Interface) *tcp.Subflow {
	for _, sf := range c.subflows {
		if Iface(sf) == iface {
			return sf
		}
	}
	return nil
}

// Iface returns the interface a subflow was bound to at AddSubflow time.
func Iface(sf *tcp.Subflow) energy.Interface {
	if m, ok := sf.Meta.(subflowMeta); ok {
		return m.iface
	}
	return -1
}

// Enqueue appends a transfer to the connection's queue and wakes idle
// subflows.
func (c *Connection) Enqueue(req *Request) {
	if req.Size <= 0 {
		if req.OnComplete != nil {
			req.OnComplete(c.eng.Now())
		}
		return
	}
	c.queued += req.Size
	req.cumEnd = c.queued
	c.requests = append(c.requests, req)
	c.kickAll()
}

// Download is the single-transfer convenience: enqueue size bytes and
// invoke onComplete when done.
func (c *Connection) Download(size units.ByteSize, onComplete func(at float64)) {
	c.Enqueue(&Request{Size: size, OnComplete: onComplete})
}

// Pending returns the bytes enqueued but not yet handed to any subflow.
func (c *Connection) Pending() units.ByteSize { return c.queued - c.taken }

// Outstanding returns the bytes enqueued but not yet delivered (pending
// plus in flight). Zero means the connection is application-limited: any
// observed zero throughput then says nothing about the paths.
func (c *Connection) Outstanding() units.ByteSize { return c.queued - c.delivered }

// Delivered returns the cumulative bytes delivered to the application.
func (c *Connection) Delivered() units.ByteSize { return c.delivered }

// Done reports whether everything enqueued so far has been delivered.
func (c *Connection) Done() bool { return c.delivered >= c.queued }

// IdleFor reports whether the connection has moved no data for at least d
// seconds — the paper's idle test (§3.5: "eMPTCP regards a connection as
// idle if it does not send or receive any packets during an estimated
// RTT").
func (c *Connection) IdleFor(d float64) bool {
	return c.eng.Now()-c.lastActivity >= d
}

// SetBackup sets or clears the MP_PRIO backup flag on a subflow: a backup
// subflow carries no data while any regular subflow exists (§2.1). The
// eMPTCP path usage controller drives this to suspend and resume the LTE
// path (§3.6).
func (c *Connection) SetBackup(sf *tcp.Subflow, backup bool) {
	if backup != sf.Suspended() {
		if rec := c.eng.Recorder(); rec != nil {
			flag := 0.0
			if backup {
				flag = 1
			}
			rec.Record(trace.Event{
				T: c.eng.Now(), Kind: trace.KindMPPrio,
				Subflow: sf.ID, Iface: Iface(sf).String(), A: flag,
			})
		}
	}
	if backup {
		sf.Suspend()
		return
	}
	sf.Resume()
}

// kickAll wakes every idle established subflow.
func (c *Connection) kickAll() {
	for _, sf := range c.subflows {
		sf.Kick()
	}
}

// connSource adapts Connection to tcp.DataSource without exporting the
// methods on Connection itself.
type connSource Connection

func (cs *connSource) conn() *Connection { return (*Connection)(cs) }

// Request hands out up to max bytes from the transfer queue, limited by
// the connection-level receive window when one is configured. When data is
// scarce (less queued than the requester's window), the min-RTT scheduler
// rule applies: a subflow defers to an active peer with a lower smoothed
// RTT, exactly the preference eMPTCP's §3.6 RTT-zeroing trick is designed
// to exploit on resumed subflows.
func (cs *connSource) Request(sf *tcp.Subflow, max units.ByteSize) units.ByteSize {
	c := cs.conn()
	avail := c.queued - c.taken
	if rb := c.opts.ReceiveBuffer; rb > 0 {
		if window := rb - (c.taken - c.delivered); window < avail {
			avail = window
		}
	}
	if avail <= 0 {
		return 0
	}
	if avail < max {
		if best := c.preferredSubflow(); best != nil && best != sf && best.SRTT() < sf.SRTT() {
			// Let the faster subflow carry the scarce bytes; look again
			// once it has had a round's opportunity.
			if rec := c.eng.Recorder(); rec != nil {
				rec.Record(trace.Event{
					T: c.eng.Now(), Kind: trace.KindSchedPick,
					Subflow: sf.ID, To: best.ID,
				})
			}
			best.Kick()
			c.eng.After(best.SRTT()+1e-3, sf.KickFunc())
			// The deferral re-picks the scheduler later; don't let the
			// requester's batch (if one is open) coalesce past it.
			sf.InvalidateBatch()
			return 0
		}
	}
	n := max
	if n > avail {
		n = avail
	}
	c.taken += n
	c.lastActivity = c.eng.Now()
	return n
}

// preferredSubflow returns the established, unsuspended subflow with the
// lowest smoothed RTT whose path can currently carry data, or nil.
func (c *Connection) preferredSubflow() *tcp.Subflow {
	var best *tcp.Subflow
	for _, sf := range c.subflows {
		if sf.State() != tcp.Established || sf.Suspended() || sf.Path().Capacity.Rate() <= 0 {
			continue
		}
		if best == nil || sf.SRTT() < best.SRTT() {
			best = sf
		}
	}
	return best
}

// Delivered advances the delivered counter and fires request completions.
func (cs *connSource) Delivered(sf *tcp.Subflow, n units.ByteSize) {
	c := cs.conn()
	wasBlocked := c.opts.ReceiveBuffer > 0 && c.opts.ReceiveBuffer-(c.taken-c.delivered) <= 0
	c.delivered += n
	c.lastActivity = c.eng.Now()
	if wasBlocked {
		// Receive window space freed: wake subflows idled on it.
		defer c.kickAll()
	}
	if rec := c.eng.Recorder(); rec != nil {
		rec.Record(trace.Event{
			T: c.eng.Now(), Kind: trace.KindDeliver,
			Subflow: sf.ID, Iface: Iface(sf).String(), A: float64(n),
		})
	}
	if c.OnDelivered != nil {
		c.OnDelivered(sf, Iface(sf), n)
	}
	for len(c.requests) > 0 && c.delivered >= c.requests[0].cumEnd-1e-6 {
		req := c.requests[0]
		c.requests = c.requests[1:]
		if req.OnComplete != nil {
			req.OnComplete(c.eng.Now())
		}
	}
}

// Returned puts back bytes a dead path could not move and offers them to
// the other subflows (MPTCP reinjection).
func (cs *connSource) Returned(sf *tcp.Subflow, n units.ByteSize) {
	c := cs.conn()
	c.taken -= n
	for _, other := range c.subflows {
		if other != sf {
			other.Kick()
		}
	}
}

// IncreasePerRTT implements the coupled congestion-avoidance increase:
// RFC 6356 LIA over the established, unsuspended subflows, or Reno's 1
// when uncoupled (an empty cc.Linked).
func (cs *connSource) IncreasePerRTT(sf *tcp.Subflow) float64 {
	c := cs.conn()
	var lia cc.Linked
	if c.opts.Coupling != cc.Uncoupled {
		for _, s := range c.subflows {
			if s.State() == tcp.Established && !s.Suspended() {
				lia.Add(s.Cwnd(), s.SRTT())
			}
		}
	}
	return lia.PerRound(sf.Cwnd())
}

// String summarizes the connection.
func (c *Connection) String() string {
	return fmt.Sprintf("mptcp: %d subflows, %v/%v delivered",
		len(c.subflows), c.delivered, c.queued)
}
