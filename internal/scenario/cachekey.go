package scenario

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"hash"
	"math"

	"repro/internal/energy"
	"repro/internal/runcache"
	"repro/internal/workload"
)

// RunCache is read by no code: every run simulates once per call.
//
// Deprecated: ignored.
type RunCache struct{}

// NewRunCache returns a RunCache that nothing reads.
//
// Deprecated: ignored.
func NewRunCache() *RunCache { return &RunCache{} }

// Stats always returns (0, 0).
//
// Deprecated: ignored.
func (*RunCache) Stats() (hits, misses uint64) { return 0, 0 }

// keySchema versions the run-key encoding. Changing the encoding, or
// what a run depends on, must bump it: every key then changes, so stores
// written under the old encoding miss once and their runs re-simulate.
// Schema 1 was a text digest that rounded sizes, rates and powers.
const keySchema = 2

// keyMagic opens every encoded run key.
const keyMagic = "emptcp run key"

// Workload type tags in the run key.
const (
	workFileDownload byte = iota + 1
	workFileUpload
	workBulk
	workWebPage
	workStreaming
)

// CacheKey digests everything a run's outcome depends on: the
// scenario's construction (device profile contents, link signature,
// RTTs, horizon, workload, controller overrides, app power), the
// protocol, and the run options (seed, tracing). It reports ok=false
// when the run is not cache-eligible: the scenario was built outside
// this package's library (no link signature, so the link-builder funcs
// are opaque), its workload is not one of package workload's value
// types, or a Recorder observes the run's events in-line. The campaign
// engine keys its disk store with it.
//
// The digest is SHA-256 over an explicit binary encoding: a schema
// version, then every input field in a fixed order — floats as their
// IEEE-754 bits, integers at fixed width, strings length-prefixed, a
// tag for the workload's type and for each pointer's nil-ness. Two
// inputs therefore share a key only if a run cannot tell them apart
// (TraceStep ≤ 0 and 1 are one spelling of the default), and the per-run
// RNG is rebuilt from Seed, so equal keys imply bit-identical results.
func CacheKey(sc Scenario, proto Protocol, opt Opts) (runcache.Key, bool) {
	if opt.Recorder != nil {
		return runcache.Key{}, false
	}
	var buf [1024]byte
	b, ok := appendKeyPrefix(buf[:0], sc, proto)
	if !ok {
		return runcache.Key{}, false
	}
	return sha256.Sum256(appendKeySuffix(b, opt)), true
}

// KeyPrefix is the (scenario, protocol) half of a run key, hashed once:
// the SHA-256 state after appendKeyPrefix. A campaign builds one per
// grid cell and location, then keys each of its runs by hashing only the
// seed and options. A KeyPrefix is immutable and safe to share.
type KeyPrefix struct {
	state []byte // the hash's marshalled midstate
}

// keyHash is the SHA-256 state machine a KeyHasher reuses.
type keyHash interface {
	hash.Hash
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// NewKeyPrefix hashes the (scenario, protocol) half of CacheKey's
// encoding. ok is false when runs of sc are not cache-eligible.
func NewKeyPrefix(sc Scenario, proto Protocol) (p KeyPrefix, ok bool) {
	var buf [1024]byte
	b, ok := appendKeyPrefix(buf[:0], sc, proto)
	if !ok {
		return p, false
	}
	h := sha256.New().(keyHash)
	h.Write(b)
	st, err := h.MarshalBinary()
	if err != nil {
		panic("scenario: saving a run-key midstate: " + err.Error())
	}
	return KeyPrefix{state: st}, true
}

// KeyHasher is the caller-owned state KeyPrefix.Key finishes keys in.
// crypto/sha256 restores a midstate only through an interface, which
// moves a fresh hash state and the buffers handed to it to the heap; a
// KeyHasher keeps one of each for every key. Not safe for concurrent
// use; the zero value is ready.
type KeyHasher struct {
	h   keyHash
	buf []byte // suffix encoding, then the digest
}

// Key returns the run key of opt on p's scenario and protocol — the key
// CacheKey returns — or ok=false when opt is not cache-eligible. It
// hashes only the seed and options, and allocates nothing once h holds
// its state.
func (p *KeyPrefix) Key(h *KeyHasher, opt Opts) (runcache.Key, bool) {
	if opt.Recorder != nil {
		return runcache.Key{}, false
	}
	if h.h == nil {
		h.h, h.buf = sha256.New().(keyHash), make([]byte, 0, 32)
	}
	if err := h.h.UnmarshalBinary(p.state); err != nil {
		panic("scenario: restoring a run-key midstate: " + err.Error())
	}
	h.buf = appendKeySuffix(h.buf[:0], opt)
	h.h.Write(h.buf)
	h.buf = h.h.Sum(h.buf[:0])
	return runcache.Key(h.buf), true
}

// appendKeyPrefix encodes the (scenario, protocol) half of a run key:
// magic and schema, link signature, name, device, RTTs, horizon, app
// power, controller overrides, workload, and protocol. ok is false when
// the scenario's link builders or workload are opaque to the encoding.
func appendKeyPrefix(b []byte, sc Scenario, proto Protocol) ([]byte, bool) {
	if sc.linkSig.kind == linkCustom {
		return b, false
	}
	b = appendStr(b, keyMagic)
	b = appendU64(b, keySchema)
	b = appendU8(b, byte(sc.linkSig.kind))
	for _, a := range sc.linkSig.args {
		b = appendU64(b, a)
	}
	b = appendStr(b, sc.Name)
	b = appendDevice(b, sc.Device)
	b = appendF64(b, sc.WiFiRTT)
	b = appendF64(b, sc.LTERTT)
	b = appendF64(b, sc.Horizon)
	b = appendF64(b, float64(sc.AppPower))
	if c := sc.CoreConfig; c == nil {
		b = appendU8(b, 0)
	} else {
		b = appendU8(b, 1)
		b = appendF64(b, float64(c.Kappa))
		b = appendF64(b, c.Tau)
		b = appendF64(b, float64(c.InitialAssumedRate))
		b = appendF64(b, c.MinSampleInterval)
		b = appendF64(b, c.PredictorAlpha)
		b = appendF64(b, c.PredictorBeta)
		b = appendF64(b, float64(c.MinRate))
	}
	switch w := sc.Work.(type) {
	case workload.FileDownload:
		b = appendU8(b, workFileDownload)
		b = appendF64(b, float64(w.Size))
	case workload.FileUpload:
		b = appendU8(b, workFileUpload)
		b = appendF64(b, float64(w.Size))
	case workload.Bulk:
		b = appendU8(b, workBulk)
	case workload.WebPage:
		b = appendU8(b, workWebPage)
		b = appendU64(b, uint64(w.Objects))
		b = appendU64(b, uint64(w.Connections))
		b = appendF64(b, float64(w.MinObject))
		b = appendF64(b, float64(w.MaxObject))
		b = appendF64(b, w.ParetoAlpha)
	case workload.Streaming:
		b = appendU8(b, workStreaming)
		b = appendU64(b, uint64(w.Chunks))
		b = appendF64(b, float64(w.ChunkSize))
		b = appendF64(b, w.ChunkInterval)
		b = appendU64(b, uint64(w.BufferAhead))
	default:
		return b, false
	}
	return appendU64(b, uint64(proto)), true
}

// appendKeySuffix encodes the per-run half of a run key: seed, tracing,
// and trace step.
func appendKeySuffix(b []byte, opt Opts) []byte {
	if opt.TraceStep <= 0 {
		opt.TraceStep = 1 // mirror runOne's default so both spellings share a key
	}
	b = appendU64(b, uint64(opt.Seed))
	if opt.Trace {
		b = appendU8(b, 1)
	} else {
		b = appendU8(b, 0)
	}
	return appendF64(b, opt.TraceStep)
}

// The run key's append-style encoders: fixed-width little-endian
// integers, floats as their bits, strings length-prefixed.

func appendU8(b []byte, v byte) []byte     { return append(b, v) }
func appendU64(b []byte, v uint64) []byte  { return binary.LittleEndian.AppendUint64(b, v) }
func appendF64(b []byte, v float64) []byte { return appendU64(b, math.Float64bits(v)) }
func appendStr(b []byte, s string) []byte  { return append(appendU64(b, uint64(len(s))), s...) }

// appendDevice encodes every DeviceProfile field, informational ones
// included: the key stays exact without deciding which a run reads.
func appendDevice(b []byte, d *energy.DeviceProfile) []byte {
	if d == nil {
		return appendU8(b, 0)
	}
	b = appendU8(b, 1)
	b = appendStr(b, d.Name)
	b = appendStr(b, d.ReleaseDate)
	b = appendStr(b, d.AppProcessor)
	b = appendStr(b, d.Semiconductor)
	b = appendStr(b, d.Android)
	b = appendStr(b, d.Kernel)
	b = appendStr(b, d.WiFiChipset)
	b = appendF64(b, float64(d.DeviceBase))
	b = appendF64(b, float64(d.BatteryCapacity))
	for i := range d.Radios {
		r := &d.Radios[i]
		b = appendF64(b, float64(r.Base))
		b = appendF64(b, float64(r.PerMbpsDown))
		b = appendF64(b, float64(r.PerMbpsUp))
		b = appendF64(b, r.PromoDur)
		b = appendF64(b, float64(r.PromoPower))
		b = appendF64(b, r.TailDur)
		b = appendF64(b, float64(r.TailPower))
		b = appendF64(b, float64(r.AssocEnergy))
		b = appendF64(b, float64(r.WeakSignalNominal))
		b = appendF64(b, float64(r.WeakSignalPenalty))
		b = appendF64(b, r.FACHDur)
		b = appendF64(b, float64(r.FACHPower))
		b = appendF64(b, float64(r.FACHRate))
	}
	return b
}
