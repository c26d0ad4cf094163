package exp

import (
	"testing"

	"repro/internal/energy"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestSelectPath pins the execution-path choice for every eligibility
// combination, so an edit to lockstep eligibility rules cannot
// silently drop a replication group onto a slower path (or push an
// ineligible one onto a fast path).
func TestSelectPath(t *testing.T) {
	lab := scenario.StaticLab(energy.GalaxyS3(), 8, 6, workload.FileDownload{Size: 2 * units.MB})
	mob := scenario.Mobility(energy.GalaxyS3())
	cases := []struct {
		name  string
		cfg   Config
		sc    scenario.Scenario
		proto scenario.Protocol
		k     int
		want  execPath
	}{
		{"replication k=5 eligible", Config{}, lab, scenario.MPTCP, 5, pathLockstep},
		{"replication k=4 boundary", Config{}, lab, scenario.TCPWiFi, 4, pathLockstep},
		{"replication k=3 too small", Config{}, lab, scenario.MPTCP, 3, pathScalar},
		{"NoLockstep escape hatch", Config{NoLockstep: true}, lab, scenario.MPTCP, 5, pathScalar},
		{"tracing forces scalar", Config{Trace: &trace.Collector{}}, lab, scenario.MPTCP, 5, pathScalar},
		{"emptcp not laned", Config{}, lab, scenario.EMPTCP, 5, pathScalar},
		{"streaming workload not laned", Config{}, scenario.StaticLab(energy.GalaxyS3(), 12, 4.5, workload.DefaultStreaming()),
			scenario.MPTCP, 5, pathScalar},
		// Mobility is statically inside the envelope (library scenario,
		// bulk-style work) — lockstep accepts it and peels dynamically.
		{"mobility lanes then peels", Config{}, mob, scenario.MPTCP, 5, pathLockstep},
	}
	for _, c := range cases {
		if got := selectPath(c.cfg, c.sc, c.proto, c.k); got != c.want {
			t.Errorf("%s: selectPath = %v, want %v", c.name, got, c.want)
		}
	}
}
