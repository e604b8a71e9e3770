package stats

// source is math/rand's rngSource, copied so that a stream's hot loops
// reach it without an interface call: the additive lagged Fibonacci
// generator of Mitchell and Reeds, x[n] = x[n-273] + x[n-607] (mod
// 2^64), over a 607-word register. Its values equal math/rand's word
// for word (TestStreamMatchesMathRand).
//
// Seeding is where the copy differs in method, not in result.
// math/rand fills the register from one chain of 1,841 Lehmer steps,
// x ← 48271·x mod M with M = 2^31−1, where word i XORs the values at
// steps 21+3i, 22+3i and 23+3i. Each of its steps (Schrage's method)
// computes that modular product exactly, so the value k steps on is
// 48271^k·x mod M. Seed therefore runs four independent lanes: lane l
// starts at 48271^(21+3l)·x and steps by 48271^12, filling words l,
// l+4, l+8, …; the powers come from seedPow. Each product a·x of two
// residues below 2^31 is below 2^62 and reduces by the Mersenne
// identity 2^31 ≡ 1 (mod M): (p & M) + (p >> 31) is congruent to p and
// below 2M, so one conditional subtract lands it in [0, M). Neither
// factor is 0 mod the prime M, so neither is the product: every value
// lies in [1, M−1], as seedrand's do.
type source struct {
	tap  int           // index into vec
	feed int           // index into vec
	vec  [rngLen]int64 // current feedback register
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // M, the Lehmer modulus

	seedA  = 48271                    // math/rand's seedrand multiplier
	seedA2 = seedA * seedA % int32max // two steps
)

// seedPow[k] is 48271^k mod M: the lane starts (k = 21, 24, 27, 30)
// and the lane step (12).
var seedPow = func() (p [31]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = mulmod(p[k-1], seedA)
	}
	return p
}()

// mulmod returns a·x mod M for a, x in [0, M).
func mulmod(a, x uint64) uint64 {
	p := a * x
	r := p&int32max + p>>31
	if r >= int32max {
		r -= int32max
	}
	return r
}

// seedWord is register word i before its rngCooked XOR, from y, the
// Lehmer value at step 21+3i.
func seedWord(y uint64) int64 {
	return int64(y<<40 ^ mulmod(y, seedA)<<20 ^ mulmod(y, seedA2))
}

// Seed sets the register to math/rand's for seed: the same
// normalization (seed mod M, a negative seed plus M, 0 as 89482311) and
// the same words, computed in four lanes.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap

	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}

	x := uint64(seed)
	step := seedPow[12]
	y0, y1 := mulmod(seedPow[21], x), mulmod(seedPow[24], x)
	y2, y3 := mulmod(seedPow[27], x), mulmod(seedPow[30], x)
	i := 0
	for ; i+4 <= rngLen; i += 4 {
		s.vec[i] = seedWord(y0) ^ rngCooked[i]
		s.vec[i+1] = seedWord(y1) ^ rngCooked[i+1]
		s.vec[i+2] = seedWord(y2) ^ rngCooked[i+2]
		s.vec[i+3] = seedWord(y3) ^ rngCooked[i+3]
		y0, y1 = mulmod(y0, step), mulmod(y1, step)
		y2, y3 = mulmod(y2, step), mulmod(y3, step)
	}
	// 607 = 4·151 + 3: lanes 0–2 fill the last three words.
	s.vec[i] = seedWord(y0) ^ rngCooked[i]
	s.vec[i+1] = seedWord(y1) ^ rngCooked[i+1]
	s.vec[i+2] = seedWord(y2) ^ rngCooked[i+2]
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 returns the next register word.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}

	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}

	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
