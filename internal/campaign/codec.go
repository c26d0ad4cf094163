package campaign

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/energy"
	"repro/internal/scenario"
	"repro/internal/units"
)

// Binary codec for scenario.Result on the disk cache. Campaign runs
// never trace (Opts.Trace off), so the trace pointers are always nil
// and the fixed-width scalar fields are the whole result; everything
// encodes as little-endian uint64 (Float64bits for the float-backed
// units types), so decode(encode(r)) == r bit for bit — the property
// the byte-identical-aggregates guarantee leans on.
//
// The version byte guards the layout and the interface count guards
// the ByIface array: a record written by an older binary with either
// mismatched is treated as a cache miss (re-simulate), never as data.
// So is a boolean field holding anything but 0 or 1, which no encoder
// writes: every accepted record re-encodes to its own bytes.

const (
	codecVersion = 1
	// 2 header bytes + 13 eight-byte fields (proto, completed,
	// completion, elapsed, energy, 3×iface, base, down, up, j/B, pct)
	// + switches + lteUsed.
	codecSize = 2 + 13*8 + 8 + 1
)

func encodeResult(r scenario.Result) []byte {
	b := make([]byte, 0, codecSize)
	b = append(b, codecVersion, byte(energy.NumInterfaces))
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	u64(uint64(r.Protocol))
	if r.Completed {
		u64(1)
	} else {
		u64(0)
	}
	f64(r.CompletionTime)
	f64(r.Elapsed)
	f64(float64(r.Energy))
	for _, e := range r.ByIface {
		f64(float64(e))
	}
	f64(float64(r.BaseEnergy))
	f64(float64(r.Downloaded))
	f64(float64(r.Uploaded))
	f64(r.JPerByte)
	f64(r.BatteryPct)
	u64(uint64(r.Switches))
	if r.LTEUsed {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return b
}

func decodeResult(b []byte) (scenario.Result, error) {
	var r scenario.Result
	if len(b) != codecSize {
		return r, fmt.Errorf("campaign: result record is %d bytes, want %d", len(b), codecSize)
	}
	if b[0] != codecVersion || b[1] != byte(energy.NumInterfaces) {
		return r, fmt.Errorf("campaign: result record version %d/%d, want %d/%d",
			b[0], b[1], codecVersion, energy.NumInterfaces)
	}
	b = b[2:]
	u64 := func() uint64 {
		v := binary.LittleEndian.Uint64(b)
		b = b[8:]
		return v
	}
	f64 := func() float64 { return math.Float64frombits(u64()) }
	r.Protocol = scenario.Protocol(u64())
	completed := u64()
	r.Completed = completed != 0
	r.CompletionTime = f64()
	r.Elapsed = f64()
	r.Energy = units.Energy(f64())
	for i := range r.ByIface {
		r.ByIface[i] = units.Energy(f64())
	}
	r.BaseEnergy = units.Energy(f64())
	r.Downloaded = units.ByteSize(f64())
	r.Uploaded = units.ByteSize(f64())
	r.JPerByte = f64()
	r.BatteryPct = f64()
	r.Switches = int(u64())
	r.LTEUsed = b[0] != 0
	if completed > 1 || b[0] > 1 {
		return scenario.Result{}, fmt.Errorf("campaign: result record has a non-boolean flag (%d, %d)", completed, b[0])
	}
	return r, nil
}
