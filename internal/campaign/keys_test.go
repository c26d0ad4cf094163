package campaign

import (
	"testing"

	"repro/internal/energy"
	"repro/internal/scenario"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestKeyPrefixMatchesCacheKey checks the executor's per-combination
// key path against scenario.CacheKey, the reference definition: for
// every run of the wild grid at the end-to-end benchmark's size (both
// paper sizes, 200 seeds, three replicas), and for one instance of
// every library scenario under every protocol.
func TestKeyPrefixMatchesCacheKey(t *testing.T) {
	spec := Spec{
		Name:      "wild",
		Device:    "s3",
		WiFi:      []string{"bad", "good"},
		LTE:       []string{"bad", "good"},
		Locations: []string{"wdc", "ams", "sng"},
		SizesMB:   []float64{0.25, 16},
		Protocols: []string{"mptcp", "emptcp", "tcp-wifi"},
		Seeds:     SeedRange{Base: 11, Count: 200},
		Replicate: 3,
	}
	g, err := compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	e := newExecutor(g, nil, false)
	if len(e.prefixes) != g.combos() || g.combos() != 72 {
		t.Fatalf("%d prefixes for %d combinations, want 72", len(e.prefixes), g.combos())
	}
	var h scenario.KeyHasher
	for i := uint64(0); i < g.total; i++ {
		sc, proto, seed, _ := g.runAt(i)
		want, ok := scenario.CacheKey(sc, proto, scenario.Opts{Seed: seed})
		p := e.prefixAt(i)
		if !ok || !p.ok {
			t.Fatalf("run %d: not keyable (CacheKey %v, prefix %v)", i, ok, p.ok)
		}
		if got, _ := p.key.Key(&h, scenario.Opts{Seed: g.seedAt(i)}); got != want {
			t.Fatalf("run %d: prefix key %x, CacheKey %x", i, got, want)
		}
	}

	dev := energy.GalaxyS3()
	dl := workload.FileDownload{Size: 4 * units.MB}
	library := []scenario.Scenario{
		scenario.StaticLab(dev, 12, 4.5, dl),
		scenario.RandomBandwidth(dev, dl),
		scenario.BackgroundTraffic(dev, 3, 0.5, 0.25, dl),
		scenario.Mobility(dev),
		scenario.MobilityMultiAP(dev),
		scenario.Wild(energy.Nexus5(), scenario.Good, scenario.Bad, scenario.AMS, dl),
		scenario.WebBrowsing(dev),
	}
	for _, sc := range library {
		for _, proto := range scenario.AllProtocols {
			p, ok := scenario.NewKeyPrefix(sc, proto)
			if !ok {
				t.Fatalf("%s: no key prefix", sc.Name)
			}
			for _, opt := range []scenario.Opts{{Seed: 1}, {Seed: -3, Trace: true, TraceStep: 0.5}} {
				want, _ := scenario.CacheKey(sc, proto, opt)
				if got, _ := p.Key(&h, opt); got != want {
					t.Errorf("%s %v %+v: prefix key %x, CacheKey %x", sc.Name, proto, opt, got, want)
				}
			}
		}
	}
}
