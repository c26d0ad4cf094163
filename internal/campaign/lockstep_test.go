package campaign

import (
	"bytes"
	"testing"

	"repro/internal/lockstep"
)

// TestLockstepCampaignIdentity proves the shard executor's lane batching
// is byte-transparent: the same spec run with lockstep on and off (and
// with shard boundaries that clip seed blocks) produces identical
// canonical aggregates, and the default path actually executes lanes.
func TestLockstepCampaignIdentity(t *testing.T) {
	spec := smallSpec()
	spec.ShardSize = 16 // whole 5-seed blocks inside one shard
	ref := runToBytes(t, spec, Options{Jobs: 1, NoLockstep: true})

	lanes0, _ := lockstep.Stats()
	if got := runToBytes(t, spec, Options{Jobs: 1}); !bytes.Equal(got, ref) {
		t.Errorf("lockstep aggregates differ from scalar reference\nref: %s\ngot: %s", ref, got)
	}
	if lanes1, _ := lockstep.Stats(); lanes1 == lanes0 {
		t.Fatalf("default campaign executed no lockstep lanes")
	}

	// Shard boundaries that slice seed blocks: a 4-run clip still lanes,
	// the 1-run remainder falls back to scalar. Compare against the
	// scalar reference at the same shard size (shard size shapes the
	// aggregate merge order, so it must match between the two).
	spec.ShardSize = 4
	clippedRef := runToBytes(t, spec, Options{Jobs: 1, NoLockstep: true})
	if got := runToBytes(t, spec, Options{Jobs: 4}); !bytes.Equal(got, clippedRef) {
		t.Errorf("clipped-block aggregates differ from scalar reference")
	}
}

// TestProgressLaneCountersPerCampaign runs two campaigns one after the
// other in one process: each Progress must count only the lanes and
// peels its own execution added to the process-wide lockstep totals,
// and a finished campaign's counts must not grow with later campaigns.
func TestProgressLaneCountersPerCampaign(t *testing.T) {
	execute := func(spec Spec) (j *Job, lanes, peels int64) {
		t.Helper()
		lanes0, peels0 := lockstep.Stats()
		j, err := New(spec, Options{Jobs: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Execute(); err != nil {
			t.Fatal(err)
		}
		lanes1, peels1 := lockstep.Stats()
		return j, lanes1 - lanes0, peels1 - peels0
	}
	spec := smallSpec()
	spec.ShardSize = 16
	first, lanes, peels := execute(spec)
	p1 := first.Progress()
	if p1.LaneRuns == 0 {
		t.Fatal("first campaign executed no lockstep lanes")
	}
	if p1.LaneRuns != lanes || p1.LanePeels != peels {
		t.Errorf("first campaign: Progress lanes/peels %d/%d, its own execution %d/%d",
			p1.LaneRuns, p1.LanePeels, lanes, peels)
	}

	spec.Seeds.Base = 200
	second, lanes, peels := execute(spec)
	if p2 := second.Progress(); p2.LaneRuns != lanes || p2.LanePeels != peels {
		t.Errorf("second campaign: Progress lanes/peels %d/%d, its own execution %d/%d",
			p2.LaneRuns, p2.LanePeels, lanes, peels)
	}
	if p := first.Progress(); p.LaneRuns != p1.LaneRuns || p.LanePeels != p1.LanePeels {
		t.Errorf("first campaign's counts moved from %d/%d to %d/%d after the second ran",
			p1.LaneRuns, p1.LanePeels, p.LaneRuns, p.LanePeels)
	}
}
