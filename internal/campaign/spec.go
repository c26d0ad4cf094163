// Package campaign is the population-scale layer above the single-run
// simulator: it treats "simulate a population of millions of devices"
// as a first-class job. A declarative Spec names a parameter grid —
// device profile × link-quality categories × server locations ×
// workload sizes × protocols × a seed range, optionally replicated —
// and the executor streams every grid point through fixed-memory
// streaming aggregators (internal/stats.Stream), never retaining
// per-run results, so a 10⁶-run campaign runs in constant memory.
// Results are memoized in a persistent content-addressed disk cache
// (internal/runcache.Store) under the same sha256 keys the in-process
// run cache uses, so campaigns dedupe and resume across invocations;
// the HTTP control plane in server.go exposes submit/status/result/
// cancel as the `emptcpsim serve` capacity-planning service.
//
// Determinism: a campaign's aggregates are a pure function of its Spec.
// The run grid is enumerated in a fixed order, folded into fixed-size
// shards, and shard aggregates are merged in shard order — so the
// output bytes are identical at any worker count, with or without the
// disk cache, resumed or not.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"strings"

	"repro/internal/energy"
	"repro/internal/scenario"
	"repro/internal/units"
	"repro/internal/workload"
)

// SeedRange is a contiguous run-seed range: Base, Base+1, …,
// Base+Count−1. Seeds are shared across protocols and categories (the
// paper's paired-measurement design), so comparisons within a campaign
// are matched.
type SeedRange struct {
	Base  int64 `json:"base"`
	Count int   `json:"count"`
}

// Spec declares one campaign: the §5.1 in-the-wild grid generalised to
// arbitrary sizes and populations. The zero values of optional fields
// are normalised by Validate; the digest is taken over the normalised
// spec, so two spellings of the same campaign share an identity.
type Spec struct {
	// Name is a human label; it does not affect the digest's run grid
	// but is part of campaign identity (two names = two campaigns).
	Name string `json:"name,omitempty"`
	// Device is the handset profile: "s3" (default) or "n5".
	Device string `json:"device,omitempty"`
	// WiFi and LTE list the link-quality categories to cross:
	// "good" (≥8 Mbps draws) or "bad". Default: both.
	WiFi []string `json:"wifi,omitempty"`
	LTE  []string `json:"lte,omitempty"`
	// Locations lists server deployments ("wdc", "ams", "sng");
	// runs spread across them within each cell. Default: all three.
	Locations []string `json:"locations,omitempty"`
	// SizesMB lists file-download sizes in MB. Default: 16.
	SizesMB []float64 `json:"sizes_mb,omitempty"`
	// Protocols lists the transports to compare: "tcp-wifi", "tcp-lte",
	// "mptcp", "emptcp", "wifi-first", "mdp", "single-path".
	// Default: mptcp, emptcp, tcp-wifi (the whisker-figure trio).
	Protocols []string `json:"protocols,omitempty"`
	// Seeds is the per-cell seed range (population size per cell ×
	// location). Required: Count ≥ 1.
	Seeds SeedRange `json:"seeds"`
	// Replicate repeats the whole grid N times (default 1). Replicas
	// re-ask every question the grid poses — the population-scale query
	// pattern — and dedupe onto the first replica through the cache, so
	// aggregate counts scale to N× the grid while simulating it once.
	Replicate int `json:"replicate,omitempty"`
	// ShardSize is the number of runs per aggregation shard (default
	// 1024). It fixes the deterministic merge boundaries and bounds the
	// out-of-order buffer; it does not affect results beyond shaping
	// the (fixed) float reduction order.
	ShardSize int `json:"shard_size,omitempty"`
}

// Validate normalises the spec in place (filling defaults) and checks
// every enumerated value, returning a descriptive error for the HTTP
// 400 path.
func (s *Spec) Validate() error {
	if s.Device == "" {
		s.Device = "s3"
	}
	if _, err := deviceOf(s.Device); err != nil {
		return err
	}
	if len(s.WiFi) == 0 {
		s.WiFi = []string{"bad", "good"}
	}
	if len(s.LTE) == 0 {
		s.LTE = []string{"bad", "good"}
	}
	for _, q := range append(append([]string{}, s.WiFi...), s.LTE...) {
		if _, err := qualityOf(q); err != nil {
			return err
		}
	}
	if len(s.Locations) == 0 {
		s.Locations = []string{"wdc", "ams", "sng"}
	}
	for _, l := range s.Locations {
		if _, err := locationOf(l); err != nil {
			return err
		}
	}
	if len(s.SizesMB) == 0 {
		s.SizesMB = []float64{16}
	}
	for _, mb := range s.SizesMB {
		if mb <= 0 || mb > 4096 {
			return fmt.Errorf("campaign: size %vMB out of range (0, 4096]", mb)
		}
	}
	if len(s.Protocols) == 0 {
		s.Protocols = []string{"mptcp", "emptcp", "tcp-wifi"}
	}
	for _, p := range s.Protocols {
		if _, err := protocolOf(p); err != nil {
			return err
		}
	}
	if s.Seeds.Count < 1 {
		return fmt.Errorf("campaign: seeds.count must be ≥ 1 (got %d)", s.Seeds.Count)
	}
	if s.Seeds.Base > math.MaxInt64-int64(s.Seeds.Count-1) {
		return fmt.Errorf("campaign: seeds %d + %d − 1 overflows int64", s.Seeds.Base, s.Seeds.Count)
	}
	if s.Replicate == 0 {
		s.Replicate = 1
	}
	if s.Replicate < 1 {
		return fmt.Errorf("campaign: replicate must be ≥ 1 (got %d)", s.Replicate)
	}
	if s.ShardSize == 0 {
		s.ShardSize = 1024
	}
	if s.ShardSize < 1 {
		return fmt.Errorf("campaign: shard_size must be ≥ 1 (got %d)", s.ShardSize)
	}
	if _, ok := s.runs(); !ok {
		return fmt.Errorf("campaign: grid of %d replicas × %d wifi × %d lte × %d sizes × %d protocols × %d locations × %d seeds exceeds %d runs",
			s.Replicate, len(s.WiFi), len(s.LTE), len(s.SizesMB), len(s.Protocols), len(s.Locations), s.Seeds.Count, math.MaxInt64)
	}
	return nil
}

// runs multiplies the grid dimensions of a normalised spec. It reports
// false when the product exceeds math.MaxInt64, which leaves the shard
// arithmetic on the total (rounding up by a shard size) room to spare.
func (s *Spec) runs() (uint64, bool) {
	n := uint64(1)
	for _, d := range [...]int{s.Replicate, len(s.WiFi), len(s.LTE), len(s.SizesMB),
		len(s.Protocols), len(s.Locations), s.Seeds.Count} {
		hi, lo := bits.Mul64(n, uint64(d))
		if hi != 0 || lo > math.MaxInt64 {
			return 0, false
		}
		n = lo
	}
	return n, true
}

// TotalRuns is the campaign's grid size including replication,
// computed over the normalised form (0 for an invalid spec).
func (s *Spec) TotalRuns() uint64 {
	n := *s
	if err := n.Validate(); err != nil {
		return 0
	}
	total, _ := n.runs()
	return total
}

// Digest is the campaign's content identity: a sha256 over the
// canonical JSON encoding of the normalised spec. Equal digests mean
// equal run grids and therefore byte-identical aggregates.
func (s *Spec) Digest() ([32]byte, error) {
	n := *s // normalise a copy so Digest is const on validated specs
	if err := n.Validate(); err != nil {
		return [32]byte{}, err
	}
	b, err := json.Marshal(n)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// ID is the short hex form of the digest used as the campaign's HTTP
// resource name.
func (s *Spec) ID() (string, error) {
	d, err := s.Digest()
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(d[:])[:16], nil
}

func deviceOf(name string) (*energy.DeviceProfile, error) {
	switch strings.ToLower(name) {
	case "s3":
		return energy.GalaxyS3(), nil
	case "n5":
		return energy.Nexus5(), nil
	}
	return nil, fmt.Errorf("campaign: unknown device %q (want s3 or n5)", name)
}

func qualityOf(name string) (scenario.Quality, error) {
	switch strings.ToLower(name) {
	case "good":
		return scenario.Good, nil
	case "bad":
		return scenario.Bad, nil
	}
	return 0, fmt.Errorf("campaign: unknown link quality %q (want good or bad)", name)
}

func locationOf(name string) (scenario.ServerLoc, error) {
	switch strings.ToLower(name) {
	case "wdc":
		return scenario.WDC, nil
	case "ams":
		return scenario.AMS, nil
	case "sng":
		return scenario.SNG, nil
	}
	return 0, fmt.Errorf("campaign: unknown server location %q (want wdc, ams, or sng)", name)
}

func protocolOf(name string) (scenario.Protocol, error) {
	switch strings.ToLower(name) {
	case "tcp-wifi":
		return scenario.TCPWiFi, nil
	case "tcp-lte":
		return scenario.TCPLTE, nil
	case "mptcp":
		return scenario.MPTCP, nil
	case "emptcp":
		return scenario.EMPTCP, nil
	case "wifi-first":
		return scenario.WiFiFirst, nil
	case "mdp":
		return scenario.MDP, nil
	case "single-path":
		return scenario.SinglePath, nil
	}
	return 0, fmt.Errorf("campaign: unknown protocol %q", name)
}

// grid is the compiled form of a validated spec: every run index maps
// to one (scenario, protocol, seed) triple and one aggregation cell.
// Enumeration order (outermost first) is replicate, wifi, lte, size,
// protocol, location, seed — fixed forever, since the shard-merge
// determinism and the disk-cache resume both replay it.
type grid struct {
	spec   Spec
	device *energy.DeviceProfile
	wifi   []scenario.Quality
	lte    []scenario.Quality
	locs   []scenario.ServerLoc
	protos []scenario.Protocol
	total  uint64
}

func compile(spec Spec) (*grid, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	g := &grid{spec: spec}
	var err error
	if g.device, err = deviceOf(spec.Device); err != nil {
		return nil, err
	}
	for _, q := range spec.WiFi {
		v, _ := qualityOf(q)
		g.wifi = append(g.wifi, v)
	}
	for _, q := range spec.LTE {
		v, _ := qualityOf(q)
		g.lte = append(g.lte, v)
	}
	for _, l := range spec.Locations {
		v, _ := locationOf(l)
		g.locs = append(g.locs, v)
	}
	for _, p := range spec.Protocols {
		v, _ := protocolOf(p)
		g.protos = append(g.protos, v)
	}
	g.total = spec.TotalRuns()
	return g, nil
}

// cells is the number of aggregation cells: every (wifi, lte, size,
// protocol) combination. Locations, seeds, and replicas aggregate into
// their cell.
func (g *grid) cells() int {
	return len(g.wifi) * len(g.lte) * len(g.spec.SizesMB) * len(g.protos)
}

// cellAt is runAt's arithmetic-only sibling: the aggregation cell of
// run i, with no scenario construction. The executor calls it once per
// run on the replay path, so it must stay allocation-free.
func (g *grid) cellAt(i uint64) int {
	i /= uint64(g.spec.Seeds.Count)
	i /= uint64(len(g.locs))
	nProto := uint64(len(g.protos))
	protoIdx := i % nProto
	i /= nProto
	nSize := uint64(len(g.spec.SizesMB))
	sizeIdx := i % nSize
	i /= nSize
	nLTE := uint64(len(g.lte))
	lteIdx := i % nLTE
	i /= nLTE
	wifiIdx := i % uint64(len(g.wifi))
	return int(((wifiIdx*nLTE+lteIdx)*nSize+sizeIdx)*nProto + protoIdx)
}

// runAt decodes run index i into its scenario, protocol, seed, and
// aggregation cell.
func (g *grid) runAt(i uint64) (sc scenario.Scenario, proto scenario.Protocol, seed int64, cell int) {
	nSeed := uint64(g.spec.Seeds.Count)
	nLoc := uint64(len(g.locs))
	nProto := uint64(len(g.protos))
	nSize := uint64(len(g.spec.SizesMB))
	nLTE := uint64(len(g.lte))

	seedIdx := i % nSeed
	i /= nSeed
	locIdx := i % nLoc
	i /= nLoc
	protoIdx := i % nProto
	i /= nProto
	sizeIdx := i % nSize
	i /= nSize
	lteIdx := i % nLTE
	i /= nLTE
	wifiIdx := i % uint64(len(g.wifi))
	// The remaining quotient is the replica number; it changes nothing
	// about the run, which is exactly what makes replicas cache hits.

	size := units.ByteSize(g.spec.SizesMB[sizeIdx] * float64(units.MB))
	sc = scenario.Wild(g.device, g.wifi[wifiIdx], g.lte[lteIdx], g.locs[locIdx],
		workload.FileDownload{Size: size})
	proto = g.protos[protoIdx]
	seed = g.spec.Seeds.Base + int64(seedIdx)
	cell = int(((wifiIdx*nLTE+lteIdx)*nSize+sizeIdx)*nProto + protoIdx)
	return sc, proto, seed, cell
}
