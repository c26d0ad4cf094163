package main

import (
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/campaign"
	"repro/internal/lockstep"
	"repro/internal/runcache"
	"repro/internal/scenario"
	"repro/internal/simrng"
)

// The traced campaign jobs time calls into each layer's public
// functions after the job, on the job's own grid. Seeds for the
// seeding, scalar-run and lane timings are offset by freshSeedOffset so
// they are new to simrng's seed cache, as every seed of a campaign job
// is.
const (
	freshSeedOffset = 1 << 40
	seedSamples     = 256
	runsPerBlock    = 2
	laneBatch       = 8
)

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// timeKeys computes and times scenario.CacheKey for every run.
func timeKeys(rec *jobRecord, blocks [][]gridRun) ([]runcache.Key, []float64, error) {
	var keys []runcache.Key
	var took []float64
	for _, blk := range blocks {
		for _, r := range blk {
			start := time.Now()
			k, ok := scenario.CacheKey(r.sc, r.proto, scenario.Opts{Seed: r.seed})
			took = append(took, us(time.Since(start)))
			if !ok {
				return nil, nil, fmt.Errorf("grid run %s/%v has no cache key", r.sc.Name, r.proto)
			}
			keys = append(keys, k)
		}
	}
	rec.Layer["scenario.cache_key_us.p50"] = percentile(took, 50)
	rec.Layer["scenario.cache_key_us.p90"] = percentile(took, 90)
	return keys, took, nil
}

// coldLayers times the layers a cold campaign spends its time in:
// cache keys, store appends, seeding, scalar runs and lockstep lanes.
func coldLayers(rec *jobRecord, spec campaign.Spec, store *runcache.Store, storeDir string) error {
	blocks := gridBlocks(spec)
	keys, _, err := timeKeys(rec, blocks)
	if err != nil {
		return err
	}
	if err := timePuts(rec, keys, store, storeDir+".put"); err != nil {
		return err
	}
	bytes, err := dirBytes(storeDir)
	if err != nil {
		return err
	}
	rec.Layer["runcache.store_bytes"] = float64(bytes)

	seedUS := make([]float64, seedSamples)
	for i := range seedUS {
		start := time.Now()
		simrng.New(spec.Seeds.Base + freshSeedOffset + int64(i))
		seedUS[i] = us(time.Since(start))
	}
	rec.Layer["simrng.seed_us.p50"] = percentile(seedUS, 50)

	var runUS, laneUS []float64
	for b, blk := range blocks {
		r := blk[0]
		base := spec.Seeds.Base + 2*freshSeedOffset + int64(b)*(runsPerBlock+laneBatch)
		for i := range runsPerBlock {
			start := time.Now()
			scenario.Run(r.sc, r.proto, scenario.Opts{Seed: base + int64(i)})
			runUS = append(runUS, us(time.Since(start)))
		}
		if !lockstep.Eligible(r.sc, r.proto, scenario.Opts{}) {
			continue
		}
		seeds := make([]int64, laneBatch)
		for i := range seeds {
			seeds[i] = base + runsPerBlock + int64(i)
		}
		start := time.Now()
		lockstep.Run(r.sc, r.proto, seeds, scenario.Opts{})
		laneUS = append(laneUS, us(time.Since(start))/laneBatch)
	}
	rec.Layer["scenario.run_us.p50"] = percentile(runUS, 50)
	rec.Layer["scenario.run_us.p90"] = percentile(runUS, 90)
	rec.Layer["lockstep.run_us_per_lane"] = percentile(laneUS, 50)
	return nil
}

// timePuts appends the cold job's own records, read back with Get, to
// a fresh store and times each Put.
func timePuts(rec *jobRecord, keys []runcache.Key, store *runcache.Store, dir string) error {
	fresh, err := runcache.OpenStore(dir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	took := make([]float64, 0, len(keys))
	for _, k := range keys {
		v, hit, err := store.Get(k)
		if err != nil {
			fresh.Close()
			return err
		}
		if !hit {
			fresh.Close()
			return fmt.Errorf("the cold store holds no record for a grid run")
		}
		start := time.Now()
		err = fresh.Put(k, v)
		took = append(took, us(time.Since(start)))
		if err != nil {
			fresh.Close()
			return err
		}
	}
	rec.Layer["runcache.store_put_us.p50"] = percentile(took, 50)
	rec.Layer["runcache.store_put_us.p90"] = percentile(took, 90)
	return fresh.Close()
}

// warmLayers times the replay path's public calls, CacheKey and
// Store.Get, once per run. Their sum leaves the executor, codec and
// fold as campaign.unattributed_s.
func warmLayers(rec *jobRecord, spec campaign.Spec, store *runcache.Store) error {
	keys, keyUS, err := timeKeys(rec, gridBlocks(spec))
	if err != nil {
		return err
	}
	getUS := make([]float64, 0, len(keys))
	for _, k := range keys {
		start := time.Now()
		_, hit, err := store.Get(k)
		getUS = append(getUS, us(time.Since(start)))
		if err != nil {
			return err
		}
		if !hit {
			return fmt.Errorf("the warm store holds no record for a grid run")
		}
	}
	rec.Layer["runcache.store_get_us.p50"] = percentile(getUS, 50)
	rec.Layer["runcache.store_get_us.p90"] = percentile(getUS, 90)
	rec.ReplayS = (sum(keyUS) + sum(getUS)) / 1e6
	return nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
