package trace

import "math/rand"

// NewSource returns a source with exactly the value stream of
// rand.NewSource(seed) whose first value costs six modular multiplies
// instead of seeding math/rand's 607-word register (~11 µs, 4.9 KB). It
// is for streams that are seeded, read once and dropped: one normal
// variate per Lognormal slot, one participation draw per fleet session.
//
// A freshly seeded register has tap = 0 and feed = 607−273, so its first
// output is vec[333] + vec[606]. rngSource.Seed fills vec from the MINSTD
// generator x ← 48271·x mod (2³¹−1): it discards 20 values, then takes
// three per word, so with x₀ the reduced seed and xₖ = 48271ᵏ·x₀ mod M,
//
//	vec[i] = x₍₂₁₊₃ᵢ₎<<40 ^ x₍₂₂₊₃ᵢ₎<<20 ^ x₍₂₃₊₃ᵢ₎ ^ rngCooked[i]
//
// and words 333 and 606 need x₁₀₂₀…x₁₀₂₂ and x₁₈₃₉…x₁₈₄₁, each one
// multiplication of x₀ by a constant power of 48271. This is the seeding
// loop's own arithmetic jumped ahead, so it is exact; the only numbers
// copied from math/rand are rngCooked[333] and rngCooked[606], and
// TestSourceMatchesMathRand holds the stream to the real source bit for
// bit. A second value would need the whole register, so a source asked
// for one builds rand.NewSource(seed), discards the draw already served
// and continues from it — NormFloat64 does when the ziggurat rejects
// its first candidate, about 2.8% of draws.
func NewSource(seed int64) rand.Source64 { return &source{seed: seed} }

type source struct {
	seed  int64
	drawn bool          // the closed-form first value has been served
	full  rand.Source64 // the real register, from the second value on
}

const (
	lcgMod = 1<<31 - 1 // MINSTD modulus
	// 48271ᵏ mod lcgMod for the six steps that feed vec[333] and vec[606].
	lcgPow1020, lcgPow1021, lcgPow1022 = 2082024995, 1341337692, 1079773482
	lcgPow1839, lcgPow1840, lcgPow1841 = 933195560, 665897288, 2140244399
	rngCooked333, rngCooked606         = -4633371852008891965, 4152330101494654406
)

// seedWord assembles one register word as rngSource.Seed does, from the
// reduced seed x and the three LCG powers that word consumes.
func seedWord(x, p1, p2, p3 uint64, cooked int64) uint64 {
	return (x*p1%lcgMod)<<40 ^ (x*p2%lcgMod)<<20 ^ (x * p3 % lcgMod) ^ uint64(cooked)
}

func (s *source) Uint64() uint64 {
	if s.drawn {
		if s.full == nil {
			s.full = rand.NewSource(s.seed).(rand.Source64)
			s.full.Uint64()
		}
		return s.full.Uint64()
	}
	s.drawn = true
	x := s.seed % lcgMod // reduced as rngSource.Seed reduces it
	if x < 0 {
		x += lcgMod
	}
	if x == 0 {
		x = 89482311
	}
	return seedWord(uint64(x), lcgPow1020, lcgPow1021, lcgPow1022, rngCooked333) +
		seedWord(uint64(x), lcgPow1839, lcgPow1840, lcgPow1841, rngCooked606)
}

func (s *source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

func (s *source) Seed(seed int64) { *s = source{seed: seed} }
