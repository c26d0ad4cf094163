package simrng

import (
	"math/rand"
	"testing"
)

// seedVec is the sequential derivation math/rand performs, kept as the
// reference the lazy jump-ahead seeding must reproduce: 20 discarded
// Park–Miller steps, then three steps per slot.
func seedVec(seed int64, vec *[lfLen]int64) {
	seed = seed % lfM
	if seed < 0 {
		seed += lfM
	}
	if seed == 0 {
		seed = 89482311
	}
	x := int32(seed)
	for i := -20; i < lfLen; i++ {
		x = seedrand(x)
		if i >= 0 {
			var u uint64
			u = uint64(x) << 40
			x = seedrand(x)
			u ^= uint64(x) << 20
			x = seedrand(x)
			u ^= uint64(x)
			u ^= lfCooked[i]
			vec[i] = int64(u)
		}
	}
}

// eagerSource is the generator with its whole vector derived by seedVec
// at Seed time.
type eagerSource struct {
	tap  int
	feed int
	vec  [lfLen]int64
}

func (e *eagerSource) Seed(seed int64) {
	e.tap = 0
	e.feed = lfLen - lfTap
	seedVec(seed, &e.vec)
}

func (e *eagerSource) Uint64() uint64 {
	e.tap--
	if e.tap < 0 {
		e.tap += lfLen
	}
	e.feed--
	if e.feed < 0 {
		e.feed += lfLen
	}
	x := e.vec[e.feed] + e.vec[e.tap]
	e.vec[e.feed] = x
	return uint64(x)
}

func (e *eagerSource) Int63() int64 { return int64(e.Uint64() & lfMask) }

func newEager(seed int64) *rand.Rand {
	e := &eagerSource{}
	e.Seed(seed)
	return rand.New(e)
}

// eagerSplit derives a child exactly as Source.Split does.
func eagerSplit(r *rand.Rand, label uint64) *rand.Rand {
	return newEager(int64(mix64(r.Uint64() ^ mix64(label))))
}

// FuzzLazySeedEquivalence drives lazily seeded streams and eagerly
// seeded references through the same program and requires every draw to
// match. The program interleaves Int63, Float64 and the ziggurat
// ExpFloat64/NormFloat64, raw bursts that carry a stream across draws
// 273, 334 and 607 (where the lazy phase ends, the feed index wraps and
// the vector turns over), Split trees rooted in an Arena, Arena resets
// that recycle seeded Sources, and a LaneSources bank whose lanes are
// re-seeded from one another mid-stream.
func FuzzLazySeedEquivalence(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, lfM, -lfM, 3 * lfM, 89482311, -1 << 63, 1<<63 - 1} {
		f.Add(seed, []byte{4, 0, 91, 0, 0, 1, 0, 2, 0, 3, 0})
	}
	f.Add(int64(42), []byte{5, 0, 7, 4, 1, 91, 4, 1, 21, 1, 1, 2, 1, 3, 1, 6, 0, 7, 2, 4, 0, 203})
	f.Add(int64(-7), []byte{4, 0, 111, 4, 0, 1, 8, 0, 5, 0, 3, 4, 1, 150, 6, 3, 7, 3, 7, 0})
	f.Add(int64(12345), []byte{5, 0, 9, 5, 1, 9, 5, 2, 9, 2, 3, 3, 3, 4, 3, 255, 8, 2, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		const nLanes = 4
		var arena Arena
		srcs := []*Source{arena.New(seed)}
		refs := []*rand.Rand{newEager(seed)}
		bank := NewLaneSources(nLanes)
		laneRefs := make([]*rand.Rand, nLanes)
		for i := range laneRefs {
			ls := seed + int64(i)*lfM // same stream as seed after normalisation
			bank.Seed(i, ls)
			laneRefs[i] = newEager(ls)
		}
		pc := 0
		next := func() int {
			if pc >= len(prog) {
				return 0
			}
			b := prog[pc]
			pc++
			return int(b)
		}
		for step := 0; pc < len(prog); step++ {
			op := next() % 9
			k := next()
			s, r := srcs[k%len(srcs)], refs[k%len(refs)]
			lane := k % nLanes
			switch op {
			case 0:
				if got, want := s.lf.Int63(), r.Int63(); got != want {
					t.Fatalf("step %d Int63 = %d, want %d", step, got, want)
				}
			case 1:
				if got, want := s.Float64(), r.Float64(); got != want {
					t.Fatalf("step %d Float64 = %v, want %v", step, got, want)
				}
			case 2:
				if got, want := s.Exponential(1), r.ExpFloat64(); got != want {
					t.Fatalf("step %d ExpFloat64 = %v, want %v", step, got, want)
				}
			case 3:
				if got, want := s.Normal(0, 1), r.NormFloat64(); got != want {
					t.Fatalf("step %d NormFloat64 = %v, want %v", step, got, want)
				}
			case 4:
				n := 3 * next()
				for i := 0; i < n; i++ {
					if got, want := s.lf.Uint64(), r.Uint64(); got != want {
						t.Fatalf("step %d burst draw %d = %#x, want %#x", step, i, got, want)
					}
				}
			case 5:
				label := uint64(next())
				srcs = append(srcs, s.Split(label))
				refs = append(refs, eagerSplit(r, label))
			case 6:
				from := (lane + 1) % nLanes
				label := uint64(next())
				bank.Seed(lane, bank.SplitSeed(from, label))
				laneRefs[lane] = eagerSplit(laneRefs[from], label)
			case 7:
				if got, want := bank.Float64(lane), laneRefs[lane].Float64(); got != want {
					t.Fatalf("step %d lane %d Float64 = %v, want %v", step, lane, got, want)
				}
			case 8:
				// Recycle every arena Source under a seed drawn from
				// the stream being dropped.
				reseed := int64(s.lf.Uint64())
				if want := int64(r.Uint64()); reseed != want {
					t.Fatalf("step %d reseed draw = %d, want %d", step, reseed, want)
				}
				arena.Reset()
				srcs = []*Source{arena.New(reseed)}
				refs = []*rand.Rand{newEager(reseed)}
			}
		}
	})
}

// TestLazySeedBoundaries checks the raw stream and the materialised
// vector at every draw count around the lazy phase's edges.
func TestLazySeedBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, lfChunk - 1, lfChunk, lfChunk + 1, lfTap - 1, lfTap, lfTap + 1,
		lfLen - lfTap - 1, lfLen - lfTap, lfLen - lfTap + 1, lfLen - 1, lfLen, lfLen + 1, 2*lfLen + 3} {
		for _, seed := range []int64{0, 7, -99, lfM + 5} {
			var lf lfSource
			var ref eagerSource
			lf.Seed(seed)
			ref.Seed(seed)
			for i := 0; i < n; i++ {
				if got, want := lf.Uint64(), ref.Uint64(); got != want {
					t.Fatalf("seed %d draw %d: %#x != %#x", seed, i, got, want)
				}
			}
			if n >= lfTap+1 && lf.vec != ref.vec {
				t.Fatalf("seed %d after %d draws: vectors differ", seed, n)
			}
		}
	}
}
