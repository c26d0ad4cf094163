package campaign

import (
	"bytes"
	"encoding/json"
	"math"
	"math/big"
	"testing"

	"repro/internal/scenario"
	"repro/internal/units"
)

// FuzzDecodeResult feeds arbitrary bytes to the disk-record decoder: it
// must never panic, and every record it accepts must re-encode to
// exactly the bytes it was decoded from.
func FuzzDecodeResult(f *testing.F) {
	r := scenario.Result{
		Protocol: scenario.MPTCP, Completed: true, CompletionTime: 3.5, Elapsed: 3.5,
		Energy: 12.25, ByIface: [3]units.Energy{1, 2, 0}, BaseEnergy: 9,
		Downloaded: 4 * units.MB, JPerByte: 2.9e-6, BatteryPct: 0.01, Switches: 2, LTEUsed: true,
	}
	f.Add(encodeResult(r))
	r.Completed, r.CompletionTime, r.JPerByte, r.LTEUsed = false, math.NaN(), math.Inf(1), false
	f.Add(encodeResult(r))
	f.Add([]byte{})
	f.Add(make([]byte, codecSize))
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := decodeResult(b)
		if err != nil {
			return
		}
		if again := encodeResult(r); !bytes.Equal(again, b) {
			t.Fatalf("accepted record re-encodes differently:\n in: %x\nout: %x", b, again)
		}
	})
}

// FuzzSpecJSON feeds arbitrary bytes through the campaign submission
// path: json.Unmarshal, then Validate. It must never panic; Validate
// must be idempotent; the digest must survive a marshal/unmarshal round
// trip; and an accepted spec's TotalRuns must be the exact (unwrapped)
// product of its grid dimensions.
func FuzzSpecJSON(f *testing.F) {
	f.Add([]byte(`{"seeds":{"count":1}}`))
	f.Add([]byte(`{"name":"x","device":"n5","wifi":["good"],"lte":["bad","good"],"locations":["sng"],"sizes_mb":[0.25,16],"protocols":["mptcp","tcp-lte"],"seeds":{"base":-7,"count":40},"replicate":3,"shard_size":64}`))
	f.Add([]byte(`{"seeds":{"count":576460752303423488}}`))
	f.Add([]byte(`{"seeds":{"base":9223372036854775807,"count":2}}`))
	f.Add([]byte(`{"replicate":4611686018427387904,"seeds":{"count":1}}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		var s Spec
		if json.Unmarshal(b, &s) != nil {
			return
		}
		if s.Validate() != nil {
			return
		}
		once, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal validated spec: %v", err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("second Validate failed: %v", err)
		}
		twice, _ := json.Marshal(s)
		if !bytes.Equal(once, twice) {
			t.Fatalf("Validate not idempotent:\n%s\n%s", once, twice)
		}

		d1, err := s.Digest()
		if err != nil {
			t.Fatalf("Digest of a validated spec: %v", err)
		}
		var back Spec
		if err := json.Unmarshal(once, &back); err != nil {
			t.Fatalf("unmarshal marshalled spec: %v", err)
		}
		d2, err := back.Digest()
		if err != nil || d1 != d2 {
			t.Fatalf("digest not stable across a JSON round trip (err %v)", err)
		}

		want := big.NewInt(int64(s.Replicate))
		for _, n := range []int{len(s.WiFi), len(s.LTE), len(s.SizesMB), len(s.Protocols), len(s.Locations), s.Seeds.Count} {
			want.Mul(want, big.NewInt(int64(n)))
		}
		if got := s.TotalRuns(); !want.IsUint64() || want.Uint64() != got {
			t.Fatalf("TotalRuns = %d, want %s", got, want)
		}
	})
}
