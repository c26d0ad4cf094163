package simrng

// LaneSources is a bank of lane-striped lagged-Fibonacci generator
// states for the lockstep executor: n independent streams held side by
// side in one contiguous slice, advanced without the *Source wrapper.
// Stream i is bit-identical to a Source seeded with the same seed — the
// state type and every draw below are the exact code paths Source uses —
// so a lane batch can interleave draws across lanes in any order while
// each lane observes precisely the sequence its scalar run would.
//
// The bank carries only the uniform fast paths (Uint64/Float64/Uniform/
// Jitter/Bernoulli) plus SplitSeed; the ziggurat distributions need an
// embedded rand.Rand and stay on Source. That is exactly the lockstep
// envelope: eligible scenarios draw nothing else on the hot path.
type LaneSources struct {
	states []lfSource
}

// NewLaneSources returns a bank of n unseeded lane states.
func NewLaneSources(n int) *LaneSources {
	b := &LaneSources{}
	b.Resize(n)
	return b
}

// Resize grows or shrinks the bank to n states, reusing existing
// capacity. States keep whatever stream position they had; callers seed
// each lane before drawing.
func (b *LaneSources) Resize(n int) {
	if cap(b.states) < n {
		b.states = make([]lfSource, n)
		return
	}
	b.states = b.states[:n]
}

// Len returns the number of lane states.
func (b *LaneSources) Len() int { return len(b.states) }

// Seed positions lane i at the start of the stream for seed, lazily, as
// Source seeding does.
func (b *LaneSources) Seed(i int, seed int64) { b.states[i].Seed(seed) }

// Uint64 advances lane i one step.
func (b *LaneSources) Uint64(i int) uint64 { return b.states[i].Uint64() }

// Float64 returns a uniform value in [0,1) from lane i, with Source's
// exact resample-on-1.0 loop.
func (b *LaneSources) Float64(i int) float64 {
	s := &b.states[i]
	for {
		f := float64(s.Int63()) / (1 << 63)
		if f != 1 {
			return f
		}
	}
}

// Uniform returns a uniform value in [lo,hi) from lane i.
func (b *LaneSources) Uniform(i int, lo, hi float64) float64 {
	return lo + (hi-lo)*b.Float64(i)
}

// Jitter returns v scaled by a uniform factor in [1-frac, 1+frac] drawn
// from lane i; frac <= 0 returns v without drawing, like Source.Jitter.
func (b *LaneSources) Jitter(i int, v, frac float64) float64 {
	if frac <= 0 {
		return v
	}
	return v * b.Uniform(i, 1-frac, 1+frac)
}

// Bernoulli returns true with probability p, drawing from lane i only
// when 0 < p < 1, like Source.Bernoulli.
func (b *LaneSources) Bernoulli(i int, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return b.Float64(i) < p
}

// SplitSeed advances lane i exactly as Source.Split does and returns the
// derived child seed. The caller decides what to seed with it — another
// lane stripe, or a real *Source for a sub-process that needs one.
func (b *LaneSources) SplitSeed(i int, label uint64) int64 {
	base := b.states[i].Uint64()
	return int64(mix64(base ^ mix64(label)))
}
