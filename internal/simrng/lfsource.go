// Native reimplementation of math/rand's additive lagged-Fibonacci
// generator, seeded lazily by jump-ahead.
//
// Why: seeding math/rand derives a 607-word state vector with 1,881
// sequential Park–Miller steps, and the simulator seeds constantly (one
// child stream per subflow, link process and workload per run). Most of
// those streams draw almost nothing: in a population campaign about a
// sixth draw no value at all and most draw four or fewer. So Seed here
// only records the seed, and each slot of the state vector is computed
// on its own, by jump-ahead, just before the first draw that reads it.
//
// The stream must be bit-identical to math/rand's: every experiment
// output in the repo is golden-tested against byte-exact expectations.
// The generator below follows the same recurrence, seeding LCG, and
// cooking constants as math/rand's rngSource; lfsource_test.go proves
// equality exhaustively (first 10k draws across 1k seeds). The cooking
// table itself is not copied from the standard library — it is recovered
// algebraically at init from the output stream of rand.NewSource(1) (see
// initCooked), which both avoids duplicating a 607-entry literal and
// pins us to whatever table the linked math/rand actually uses.
package simrng

import "math/rand"

const (
	lfLen  = 607           // degree of the recurrence x_n = x_{n-273} + x_{n-607}
	lfTap  = 273           // distance to the second term
	lfMax  = 1 << 63       // Int63 modulus
	lfMask = lfMax - 1     // Int63 mask
	lfA    = 48271         // seeding LCG multiplier (Park–Miller)
	lfM    = (1 << 31) - 1 // seeding LCG modulus (2^31-1, prime)
	lfQ    = 44488         // lfM / lfA
	lfR    = 3399          // lfM % lfA

	// lfSkip is the number of LCG steps math/rand discards before the
	// first slot; slot i then takes steps lfSkip+1+3i .. lfSkip+3+3i.
	lfSkip = 20
	// lfChunk is how many draws' worth of slots a lazy stream
	// materialises at a time.
	lfChunk = 8
)

// lfCooked is the additive scrambling table XORed into the seeded state,
// recovered from math/rand at package init.
var lfCooked [lfLen]uint64

// lfPow[k] is lfA^k mod lfM: the LCG's k-step jump-ahead multiplier,
// for every step a slot uses.
var lfPow [lfSkip + 3*lfLen + 1]uint64

// lfSource is the generator state. It implements rand.Source64, so a
// rand.Rand wrapped around it reproduces every math/rand distribution
// (including the ziggurat ExpFloat64/NormFloat64) bit-for-bit.
//
// The vector is materialised lazily. For draws j < lfTap the recurrence
// reads only the seeded slots lfLen-lfTap-1-j (feed) and lfLen-1-j
// (tap), so those are computed a chunk of draws ahead; at draw lfTap the
// remaining slots 0..lfLen-2*lfTap-1 are filled in and the source is an
// ordinary eager generator. lazy is the tap index below which Uint64
// must stop to materialise (or to wrap): 0 once eager, so the hot path
// keeps its single compare.
type lfSource struct {
	tap  int
	feed int
	lazy int
	x0   uint64 // normalised seed, the LCG's starting value
	vec  [lfLen]int64
}

// seedrand advances the Park–Miller LCG without overflowing int32
// (Schrage's method), exactly as math/rand's seeding does.
func seedrand(x int32) int32 {
	hi := x / lfQ
	lo := x % lfQ
	x = lfA*lo - lfR*hi
	if x < 0 {
		x += lfM
	}
	return x
}

// mulMod returns a·b mod lfM for 0 < a, b < lfM, by two branch-free
// Mersenne folds. The first leaves r < 2·lfM; r ≠ lfM because lfM is
// prime and divides neither factor, so the second fold is exact.
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := (p & lfM) + (p >> 31)
	return (r & lfM) + (r >> 31)
}

// fill materialises seeded slots [lo, hi): each is the same three-word
// value math/rand's sequential seeding reaches, by jump-ahead from x0.
func (s *lfSource) fill(lo, hi int) {
	x0 := s.x0
	vec := s.vec[lo:hi]
	cooked := lfCooked[lo:hi]
	pow := lfPow[lfSkip+1+3*lo:]
	for i := range vec {
		m := pow[3*i : 3*i+3 : 3*i+3]
		u := mulMod(x0, m[0])<<40 ^ mulMod(x0, m[1])<<20 ^ mulMod(x0, m[2])
		vec[i] = int64(u ^ cooked[i])
	}
}

// Seed positions the generator at the start of the stream for seed. It
// materialises nothing: a stream that never draws costs only this.
func (s *lfSource) Seed(seed int64) {
	seed = seed % lfM
	if seed < 0 {
		seed += lfM
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.tap = 0
	s.feed = lfLen - lfTap
	s.lazy = lfLen
}

// Uint64 advances the recurrence one step.
func (s *lfSource) Uint64() uint64 {
	s.tap--
	if s.tap < s.lazy {
		s.refill()
	}
	s.feed--
	if s.feed < 0 {
		s.feed += lfLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// refill is Uint64's slow path: wrap the tap index, and while the
// source is still lazy, materialise the slots the next draws read.
func (s *lfSource) refill() {
	if s.tap < 0 {
		s.tap += lfLen
		if s.tap >= s.lazy {
			return
		}
	}
	j := lfLen - 1 - s.tap // the draw about to be made
	if j >= lfTap {
		s.fill(0, lfLen-2*lfTap)
		s.lazy = 0
		return
	}
	// Draws j..end-1 read the feed slots 334-end..333-j and the tap
	// slots 607-end..606-j: two contiguous runs.
	end := min(j+lfChunk, lfTap)
	s.fill(lfLen-lfTap-end, lfLen-lfTap-j)
	s.fill(lfLen-end, lfLen-j)
	s.lazy = lfLen - end
}

// Int63 returns a non-negative 63-bit value from the stream.
func (s *lfSource) Int63() int64 {
	return int64(s.Uint64() & lfMask)
}

// int31 mirrors rand.Rand.Int31: the top 32 bits of Int63.
func (s *lfSource) int31() int32 {
	return int32(s.Int63() >> 32)
}

// initCooked recovers math/rand's scrambling table from the output
// stream of rand.NewSource(1).
//
// After Seed(1) the library's state vector is v[i] = int64(u_i ^ C[i]),
// where u_i is the three-word seeding value (reproducible with seedrand)
// and C the table we want. The first 607 outputs x_j of the generator
// visit feed slots 333,332,…,0,606,…,334 and tap slots 606,…,273,272,…,0,
// each exactly once, with every x_j the sum of one original v slot and
// either another original slot or an earlier output:
//
//	j ∈ [0,272]:    x_j = v[333-j] + v[606-j]   (both original)
//	j ∈ [273,333]:  x_j = v[333-j] + x_{j-273}  → v[0..60]
//	j ∈ [334,606]:  x_j = v[940-j] + x_{j-273}  → v[334..606]
//
// The second and third lines yield those slots directly; substituting
// the third line's slots back into the first yields v[61..333]. XORing
// out u_i then leaves C[i]. All arithmetic is int64 two's-complement
// wraparound, matching the generator's own additions.
func initCooked() {
	src := rand.NewSource(1).(rand.Source64)
	var x [lfLen]int64
	for j := range x {
		x[j] = int64(src.Uint64())
	}
	var v [lfLen]int64
	for j := 273; j <= 333; j++ {
		v[333-j] = x[j] - x[j-273]
	}
	for j := 334; j <= 606; j++ {
		v[940-j] = x[j] - x[j-273]
	}
	for j := 0; j <= 272; j++ {
		v[333-j] = x[j] - v[606-j]
	}
	// Replay the seeding LCG for seed 1 to strip u_i off each slot.
	xs := int32(1)
	for i := -lfSkip; i < lfLen; i++ {
		xs = seedrand(xs)
		if i >= 0 {
			var u uint64
			u = uint64(xs) << 40
			xs = seedrand(xs)
			u ^= uint64(xs) << 20
			xs = seedrand(xs)
			u ^= uint64(xs)
			lfCooked[i] = uint64(v[i]) ^ u
		}
	}
}

func init() {
	lfPow[0] = 1
	for k := 1; k < len(lfPow); k++ {
		lfPow[k] = mulMod(lfPow[k-1], lfA)
	}
	initCooked()
}
