package campaign

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"repro/internal/scenario"
)

// Byte offsets of the fields inside one encoded cell (cell i starts at
// shardHeaderSize + i*cellAccSize). Each stream is n, mean, m2, min, max.
const (
	offRuns      = 0
	offCompleted = 8
	offLTEUsed   = 16
	offEnergy    = 24
	offJPB       = 104
	offMean      = 8
	offM2        = 16
	offMin       = 24
	offMax       = 32
	offHdrRuns   = 45
)

// patchShard returns a copy of payload with edit applied and the
// trailing crc recomputed, so only the semantic checks can reject it.
func patchShard(payload []byte, edit func(b []byte)) []byte {
	b := append([]byte(nil), payload...)
	edit(b)
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
	return b
}

func put64(b []byte, off int, v uint64) { binary.LittleEndian.PutUint64(b[off:], v) }

func putF64(b []byte, off int, f float64) { put64(b, off, math.Float64bits(f)) }

func cellOff(i int) int { return shardHeaderSize + i*cellAccSize }

// TestShardCodecRejectsImpossibleCells feeds decodeShardAgg payloads
// with valid framing and crc but cells that no fold of real runs can
// produce; each must be rejected, and the untouched payload accepted.
func TestShardCodecRejectsImpossibleCells(t *testing.T) {
	// Cell 0 folds three runs; cell 1 is empty.
	a := newAgg(2)
	for _, r := range []scenario.Result{
		{Energy: 10, Completed: true, CompletionTime: 2, JPerByte: 1e-6, LTEUsed: true},
		{Energy: 12, Completed: true, CompletionTime: 3, JPerByte: 2e-6},
		{Energy: 11, JPerByte: math.NaN()},
	} {
		a.add(0, &r)
	}
	valid := encodeShardAgg([32]byte{1}, 0, 3, 3, 0, a)
	if _, err := decodeShardAgg(valid, 2); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
	c0, c1 := cellOff(0), cellOff(1)
	for _, tc := range []struct {
		name string
		edit func(b []byte)
	}{
		{"completed > runs", func(b []byte) { put64(b, c0+offCompleted, 4) }},
		{"lteUsed > runs", func(b []byte) { put64(b, c0+offLTEUsed, 4) }},
		{"stream n > runs", func(b []byte) { put64(b, c0+offEnergy, 4) }},
		{"NaN mean", func(b []byte) { putF64(b, c0+offEnergy+offMean, math.NaN()) }},
		{"Inf max", func(b []byte) { putF64(b, c0+offEnergy+offMax, math.Inf(1)) }},
		{"NaN m2", func(b []byte) { putF64(b, c0+offJPB+offM2, math.NaN()) }},
		{"negative m2", func(b []byte) { putF64(b, c0+offEnergy+offM2, -1) }},
		{"min > max", func(b []byte) { putF64(b, c0+offEnergy+offMin, 13) }},
		{"empty stream with a mean", func(b []byte) { putF64(b, c1+offEnergy+offMean, 1) }},
		{"empty stream with -0 min", func(b []byte) { putF64(b, c1+offEnergy+offMin, math.Copysign(0, -1)) }},
		{"cell runs above header", func(b []byte) { put64(b, c1+offRuns, 1) }},
		{"cell runs below header", func(b []byte) { put64(b, offHdrRuns, 4) }},
		{"cell runs overflow the sum", func(b []byte) { put64(b, c1+offRuns, math.MaxUint64) }},
	} {
		if _, err := decodeShardAgg(patchShard(valid, tc.edit), 2); err == nil {
			t.Errorf("%s: payload accepted", tc.name)
		}
	}
}

// FuzzDecodeShardAgg throws arbitrary bytes at the shard decoder: it
// must never panic, and any payload it accepts must re-encode to the
// same bytes, so an accepted payload is exactly one encoder output.
// Each input is also tried with its crc repaired, so mutations reach
// the semantic checks behind the checksum.
func FuzzDecodeShardAgg(f *testing.F) {
	payloads, _, cells := shardPayloads(f, smallSpec())
	for _, p := range payloads {
		f.Add(p, uint16(cells))
	}
	f.Fuzz(func(t *testing.T, b []byte, wantCells uint16) {
		inputs := [][]byte{b}
		if len(b) >= 4 {
			inputs = append(inputs, patchShard(b, func([]byte) {}))
		}
		for _, in := range inputs {
			rep, err := decodeShardAgg(in, int(wantCells))
			if err != nil {
				continue
			}
			again := encodeShardAgg(rep.digest, rep.shard, rep.runs, rep.simulated, rep.diskHits, rep.agg)
			if !bytes.Equal(again, in) {
				t.Fatalf("accepted payload re-encodes differently:\n in: %x\nout: %x", in, again)
			}
		}
	})
}
