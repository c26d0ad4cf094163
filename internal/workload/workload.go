// Package workload implements the application traffic the paper evaluates
// with: single-file downloads of various sizes (256 KB to 256 MB), bulk
// transfers measured over a fixed window (the mobility scenario), and the
// Web-browsing case study of §5.4 — a copy of CNN's home page with 107
// objects fetched over six parallel persistent connections.
package workload

import (
	"repro/internal/sim"
	"repro/internal/simrng"
	"repro/internal/units"
)

// Conn is the protocol-managed connection handle a workload drives. The
// scenario layer provides implementations for each protocol under test.
type Conn interface {
	// Get enqueues a download of size bytes; onComplete fires when its
	// last byte arrives. Sequential Gets on one Conn model requests on an
	// HTTP persistent connection.
	Get(size units.ByteSize, onComplete func(at float64))
	// Put enqueues an upload of size bytes from the device. Uploads are
	// the paper's stated future work (§7); uplink traffic draws far more
	// radio power per Mbps, especially on cellular.
	Put(size units.ByteSize, onComplete func(at float64))
}

// Workload generates application traffic.
type Workload interface {
	// Launch starts the workload. open creates a new protocol-managed
	// connection; done (may be nil) fires when the workload completes.
	Launch(eng *sim.Engine, src *simrng.Source, open func() Conn, done func(at float64))
	// TotalBytes returns the workload's total transfer size, or 0 when
	// unbounded.
	TotalBytes() units.ByteSize
}

// FileDownload fetches one file over one connection — the workload of
// §4.2–§4.4 and §5.2–§5.3.
type FileDownload struct {
	Size units.ByteSize
}

// Launch implements Workload.
func (w FileDownload) Launch(eng *sim.Engine, src *simrng.Source, open func() Conn, done func(at float64)) {
	open().Get(w.Size, done)
}

// TotalBytes implements Workload.
func (w FileDownload) TotalBytes() units.ByteSize { return w.Size }

// FileUpload pushes one file from the device over one connection — the
// upload scenario the paper leaves as future work (§7).
type FileUpload struct {
	Size units.ByteSize
}

// Launch implements Workload.
func (w FileUpload) Launch(eng *sim.Engine, src *simrng.Source, open func() Conn, done func(at float64)) {
	open().Put(w.Size, done)
}

// TotalBytes implements Workload.
func (w FileUpload) TotalBytes() units.ByteSize { return w.Size }

// Bulk downloads endlessly; the scenario's horizon cuts it off. The
// mobility experiments (§4.5) use it: the metric is the amount downloaded
// in 250 s, not a completion time.
type Bulk struct{}

// BulkSize is the one transfer Bulk requests: effectively infinite at the
// simulated rates and durations.
const BulkSize units.ByteSize = 1 << 40 // 1 TiB

// Launch implements Workload.
func (Bulk) Launch(eng *sim.Engine, src *simrng.Source, open func() Conn, done func(at float64)) {
	open().Get(BulkSize, done)
}

// TotalBytes implements Workload.
func (Bulk) TotalBytes() units.ByteSize { return 0 }

// WebPage models the §5.4 case study: the CNN home page (as of 9/11/2014)
// with 107 objects, fetched by a browser over six parallel (MP)TCP
// connections with HTTP persistent connections. Almost all objects are
// smaller than 256 KB.
type WebPage struct {
	// Objects is the object count (107 in the paper).
	Objects int
	// Connections is the browser's parallel connection pool size (6).
	Connections int
	// MinObject/MaxObject bound the heavy-tailed object size draw.
	MinObject units.ByteSize
	MaxObject units.ByteSize
	// ParetoAlpha shapes the size distribution.
	ParetoAlpha float64
}

// DefaultWebPage returns the §5.4 page model: 107 objects over 6
// connections, Pareto sizes from 2 KB capped at 256 KB (mean ≈ 15 KB,
// total ≈ 1.5–2 MB, matching a 2014 news home page).
func DefaultWebPage() WebPage {
	return WebPage{
		Objects:     107,
		Connections: 6,
		MinObject:   2 * units.KB,
		MaxObject:   256 * units.KB,
		ParetoAlpha: 1.2,
	}
}

// Sizes draws the page's object sizes deterministically from src.
func (w WebPage) Sizes(src *simrng.Source) []units.ByteSize {
	sizes := make([]units.ByteSize, w.Objects)
	for i := range sizes {
		s := units.ByteSize(src.Pareto(float64(w.MinObject), w.ParetoAlpha))
		if s > w.MaxObject {
			s = w.MaxObject
		}
		sizes[i] = s
	}
	return sizes
}

// Launch implements Workload, following a browser's two-phase load: the
// root document (the first object) is fetched alone over the first
// connection; only its arrival reveals the subresource URLs, which then
// fan out round-robin over the connection pool (per-connection FIFO
// queues, HTTP/1.1 persistent connections). done fires when the last
// object of the whole page arrives — the paper's page-load latency.
func (w WebPage) Launch(eng *sim.Engine, src *simrng.Source, open func() Conn, done func(at float64)) {
	if w.Objects <= 0 || w.Connections <= 0 {
		panic("workload: WebPage needs positive object and connection counts")
	}
	sizes := w.Sizes(src)
	conns := make([]Conn, w.Connections)
	for i := range conns {
		conns[i] = open()
	}
	remaining := len(sizes)
	var lastAt float64
	objDone := func(at float64) {
		remaining--
		if at > lastAt {
			lastAt = at
		}
		if remaining == 0 && done != nil {
			done(lastAt)
		}
	}
	conns[0].Get(sizes[0], func(at float64) {
		objDone(at)
		for i, size := range sizes[1:] {
			conns[i%len(conns)].Get(size, objDone)
		}
	})
}

// TotalBytes implements Workload; the draw is random, so this reports 0
// (unknown until Launch).
func (w WebPage) TotalBytes() units.ByteSize { return 0 }

// Streaming models chunked video playout — the "more statistically varied
// application traffic such as video streaming" of the paper's future work
// (§7). The player prebuffers BufferAhead chunks as fast as the network
// allows, then fetches one chunk per ChunkInterval of playout, idling in
// between. Those idle gaps are what make streaming interesting for energy:
// they repeatedly tickle the cellular tail timer.
type Streaming struct {
	// Chunks is the number of segments in the stream.
	Chunks int
	// ChunkSize is the size of one segment.
	ChunkSize units.ByteSize
	// ChunkInterval is the playout duration of one segment in seconds.
	ChunkInterval float64
	// BufferAhead is how many segments the player keeps buffered.
	BufferAhead int
}

// DefaultStreaming returns a two-minute stream: 60 segments of 2 s at a
// 4 Mbps video bitrate (1 MB per segment), 5 segments of buffer.
func DefaultStreaming() Streaming {
	return Streaming{
		Chunks:        60,
		ChunkSize:     units.MB,
		ChunkInterval: 2.0,
		BufferAhead:   5,
	}
}

// Duration returns the stream's playout length in seconds.
func (w Streaming) Duration() float64 {
	return float64(w.Chunks) * w.ChunkInterval
}

// Launch implements Workload: chunk i+1 is requested when chunk i arrives
// if the buffer is below BufferAhead, otherwise when playout frees a
// buffer slot. done fires when the final chunk arrives.
func (w Streaming) Launch(eng *sim.Engine, src *simrng.Source, open func() Conn, done func(at float64)) {
	if w.Chunks <= 0 || w.ChunkSize <= 0 || w.ChunkInterval <= 0 || w.BufferAhead < 1 {
		panic("workload: invalid Streaming configuration")
	}
	conn := open()
	playStart := -1.0
	var fetch func(i int)
	fetch = func(i int) {
		conn.Get(w.ChunkSize, func(at float64) {
			if playStart < 0 {
				// Playback begins when the first chunk lands.
				playStart = at
			}
			if i == w.Chunks-1 {
				if done != nil {
					done(at)
				}
				return
			}
			// Chunk i+1 may be buffered once chunk i+1−BufferAhead has
			// been played out; until then the player is prebuffering and
			// fetches immediately.
			slotFree := playStart + float64(i+2-w.BufferAhead)*w.ChunkInterval
			if slotFree <= at {
				fetch(i + 1)
				return
			}
			eng.Schedule(slotFree, func() { fetch(i + 1) })
		})
	}
	fetch(0)
}

// TotalBytes implements Workload.
func (w Streaming) TotalBytes() units.ByteSize {
	return units.ByteSize(w.Chunks) * w.ChunkSize
}
