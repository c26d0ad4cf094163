package lockstep

import (
	"fmt"
	"testing"

	"repro/internal/scenario"
	"repro/internal/units"
	"repro/internal/workload"
)

// BenchmarkLockstepReplication is the issue's k-sweep: one op is a batch
// of k replications of a wild cell (the campaign's unit of work), so
// ns/op at k versus k sequential scalar runs (the scalar16 baseline) is
// the replication-throughput ratio directly. Two cells bound the regime:
// a small transfer where per-run setup and tick dispatch dominate, and a
// large one where steady-state rounds do.
func BenchmarkLockstepReplication(b *testing.B) {
	cells := []struct {
		name string
		work workload.Workload
	}{
		{"wild-0.25MB", workload.FileDownload{Size: 256 * units.KB}},
		{"wild-16MB", workload.FileDownload{Size: 16 * units.MB}},
	}
	for _, c := range cells {
		sc := scenario.Wild(s3(), scenario.Good, scenario.Good, scenario.WDC, c.work)
		b.Run(c.name+"/scalar16", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for seed := int64(0); seed < 16; seed++ {
					scenario.Run(sc, scenario.MPTCP, scenario.Opts{Seed: seed})
				}
			}
		})
		for _, k := range []int{1, 4, 16, 64} {
			b.Run(fmt.Sprintf("%s/k=%d", c.name, k), func(b *testing.B) {
				seeds := make([]int64, k)
				for i := range seeds {
					seeds[i] = int64(i)
				}
				var dst []scenario.Result
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					dst, _ = RunAppend(dst[:0], sc, scenario.MPTCP, seeds, scenario.Opts{})
				}
				if testing.Verbose() && !dst[0].Completed {
					b.Fatal("benchmark lanes did not complete")
				}
			})
		}
	}
}
