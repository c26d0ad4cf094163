package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
)

// unrecordedSeed has no recorded digest, so the self-test also takes
// the path that computes the reference in the same invocation.
const unrecordedSeed = 987654321

// selfTest runs every workload once on the tiny specs, in both trace
// modes, and checks that each run is correct and prints exactly the
// metrics BENCHMARK.json declares, with the same units.
func selfTest() int {
	decl, err := declaredMetrics("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	failed := 0
	check := func(o options) {
		res := measure(o)
		got := map[string]string{}
		for name, v := range res.Metrics {
			got[name] = v.Unit
		}
		switch {
		case !res.Correct:
			fmt.Fprintf(os.Stderr, "selftest: %s seed %d trace %t: not correct\n", o.workload, o.seed, o.trace)
			failed++
		case !maps.Equal(got, decl[o.trace]):
			fmt.Fprintf(os.Stderr, "selftest: %s trace %t prints %v, BENCHMARK.json declares %v\n", o.workload, o.trace, got, decl[o.trace])
			failed++
		}
	}
	for _, wl := range workloadNames {
		for _, trace := range []bool{false, true} {
			check(options{workload: wl, trace: trace, tiny: true})
		}
	}
	for _, wl := range workloadNames {
		check(options{workload: wl, seed: unrecordedSeed, tiny: true})
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "selftest: %d checks failed\n", failed)
		return 1
	}
	fmt.Fprintln(os.Stderr, "selftest: ok")
	return 0
}

// declaredMetrics reads name → unit for the end-to-end (false) and
// per-layer (true) metrics of BENCHMARK.json.
func declaredMetrics(path string) (map[bool]map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	decl := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bench.EndToEnd {
		decl[false][m.Name] = m.Unit
	}
	for _, m := range bench.PerLayer {
		decl[true][m.Name] = m.Unit
	}
	return decl, nil
}
