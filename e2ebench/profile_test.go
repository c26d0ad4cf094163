package main

import (
	"bytes"
	"compress/gzip"
	"testing"
)

func TestLayerOfStack(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"fmt.Fprintf", "repro/internal/units.ByteSize.String", "repro/internal/scenario.cacheKey", "repro/internal/campaign.(*executor).oneRun"}, "scenario"},
		{[]string{"repro/internal/simrng.seedVec", "repro/internal/lockstep.(*batch).setupLane"}, "simrng"},
		{[]string{"repro/internal/eib.(*Table).Decide", "repro/internal/core.(*Controller).Tick"}, "core"},
		{[]string{"repro/internal/phy.Loss"}, "link"},
		{[]string{"repro/internal/runcache.(*Cache[...]).Do.func1"}, "runcache"},
		{[]string{"repro/internal/baseline.MDP", "repro/internal/scenario.Run"}, "other"},
		{[]string{"strings.(*Builder).WriteString", "main.suiteJob"}, "runtime"},
		{[]string{"repro/internal/units.Energy.String", "repro/e2ebench.suiteJob"}, "other"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
	} {
		if got := layerOfStack(tc.frames); got != tc.want {
			t.Errorf("layerOfStack(%q) = %s, want %s", tc.frames, got, tc.want)
		}
	}
}

// TestAttribute builds a two-sample profile by hand — one packed and
// one unpacked location list, one sample labelled as a timed call — and
// checks the per-layer sums and the unlabelled time.
func TestAttribute(t *testing.T) {
	var p []byte
	varint := func(b []byte, v uint64) []byte {
		for v >= 0x80 {
			b = append(b, byte(v)|0x80)
			v >>= 7
		}
		return append(b, byte(v))
	}
	field := func(b []byte, num int, v uint64) []byte { return varint(varint(b, uint64(num)<<3), v) }
	msg := func(b []byte, num int, body []byte) []byte {
		return append(varint(varint(b, uint64(num)<<3|2), uint64(len(body))), body...)
	}
	strs := []string{"", "repro/internal/simrng.seedVec", "repro/internal/scenario.cacheKey", timedLabel, "1"}
	for fn := uint64(1); fn <= 2; fn++ { // function, its name and its location share an index
		p = msg(p, 5, field(field(nil, 1, fn), 2, fn))
		p = msg(p, 4, msg(field(nil, 1, fn), 4, field(nil, 1, fn)))
	}
	// Sample 1: location 1 unpacked, packed values [1, 30ms], no label.
	p = msg(p, 2, msg(field(nil, 1, 1), 2, varint(varint(nil, 1), 30e6)))
	// Sample 2: locations 2 then 1 (innermost first), timed label.
	s2 := msg(msg(nil, 1, varint(varint(nil, 2), 1)), 2, varint(varint(nil, 1), 10e6))
	p = msg(p, 2, msg(s2, 3, field(field(nil, 1, 3), 2, 4)))
	for _, s := range strs {
		p = msg(p, 6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()

	cpu, unlabelled, err := attribute(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if cpu["simrng"] != 30e6 || cpu["scenario"] != 10e6 || len(cpu) != 2 {
		t.Errorf("per-layer ns = %v, want simrng 30e6 and scenario 10e6", cpu)
	}
	if unlabelled != 0.03 {
		t.Errorf("unlabelled = %v s, want 0.03", unlabelled)
	}
}
