package stats

import (
	"math"
	"math/rand"
)

// Stream is a deterministic pseudo-random stream. Every stochastic
// component of the flow draws from a named Stream derived from a
// single root seed, so that the complete experiment is reproducible
// and individual components can be re-run in isolation with the same
// draws.
//
// A Stream draws exactly what rand.New(rand.NewSource(seed)) draws. It
// holds one copy of math/rand's source: the normal draws run the
// ziggurat on it directly, and every other method is math/rand's own
// algorithm through a rand.Rand over the same source.
type Stream struct {
	src *source
	r   *rand.Rand // over src
}

// NewStream returns a stream seeded with seed.
func NewStream(seed int64) *Stream {
	src := new(source)
	src.Seed(seed)
	return &Stream{src: src, r: rand.New(src)}
}

// DeriveStream derives an independent child stream identified by name.
// The derivation hashes (seed, name) so distinct names yield distinct,
// uncorrelated-for-our-purposes streams.
func DeriveStream(seed int64, name string) *Stream {
	return NewStream(deriveSeed(seed, name))
}

// Rederive reseeds s in place as the stream DeriveStream(seed,
// string(name)) and returns it. Seeding rewrites the whole register,
// so the draws that follow are identical to a fresh DeriveStream's,
// but nothing is allocated: Monte Carlo loops rederive one stream per
// sample.
func (s *Stream) Rederive(seed int64, name []byte) *Stream {
	s.src.Seed(deriveSeed(seed, name))
	return s
}

// deriveSeed is the 64-bit FNV-1a hash of seed's eight little-endian
// bytes followed by name.
func deriveSeed[T string | []byte](seed int64, name T) int64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(seed >> (8 * i)))
		h *= prime64
	}
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return int64(h)
}

// Float64 returns a uniform draw in [0,1).
func (s *Stream) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform draw in [0,n).
func (s *Stream) Intn(n int) int { return s.r.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (s *Stream) Int63() int64 { return s.r.Int63() }

// NormFloat64 returns a standard normal draw: math/rand's
// Rand.NormFloat64, whose ziggurat returns from one word's fast path
// for about 97% of words (layer 1 of its table never takes it).
func (s *Stream) NormFloat64() float64 {
	j := int32(s.src.Uint64() >> 31)
	if x, fast := ziggurat(j); fast {
		return x
	}
	return s.normMiss(j)
}

// Normal returns a draw from N(mu, sigma^2).
func (s *Stream) Normal(mu, sigma float64) float64 {
	return mu + sigma*s.NormFloat64()
}

// AddNormals sets dst[i] = base[i] + Normal(0, sigma) for each i of
// base, in index order: the values, and the stream left behind, are
// that loop's. dst must be at least as long as base and may alias it.
// It is the loop with the generator's indices held in locals, so one
// chip's draws run without a call per cell.
func (s *Stream) AddNormals(dst, base []float64, sigma float64) {
	dst = dst[:len(base)]
	src := s.src
	tap, feed := src.tap, src.feed
	for i, b := range base {
		tap--
		if tap < 0 {
			tap += rngLen
		}
		feed--
		if feed < 0 {
			feed += rngLen
		}
		w := src.vec[feed] + src.vec[tap]
		src.vec[feed] = w
		j := int32(uint64(w) >> 31)
		z, fast := ziggurat(j)
		if !fast {
			src.tap, src.feed = tap, feed
			z = s.normMiss(j)
			tap, feed = src.tap, src.feed
		}
		// 0 + … is Normal's own sum, so even a signed zero matches.
		dst[i] = b + (0 + sigma*z)
	}
	src.tap, src.feed = tap, feed
}

// rn is the ziggurat's base-strip edge: a draw beyond ±rn comes from
// the tail.
const rn = 3.442619855899

func absInt32(i int32) uint32 {
	if i < 0 {
		return uint32(-i)
	}
	return uint32(i)
}

// ziggurat returns the candidate draw x of word j (math/rand's
// int32(Uint32())) and whether it lies in the fast-path region of its
// layer, where it is the draw.
func ziggurat(j int32) (x float64, fast bool) {
	i := j & 0x7F
	return float64(j) * float64(wn[i]), absInt32(j) < kn[i]
}

// normMiss finishes a normal draw whose word j missed the ziggurat's
// fast path: the rest of math/rand's NormFloat64 loop, from that word.
func (s *Stream) normMiss(j int32) float64 {
	for {
		i := j & 0x7F
		x := float64(j) * float64(wn[i])
		if i == 0 {
			// This extra work is only required for the base strip.
			for {
				x = -math.Log(s.r.Float64()) * (1.0 / rn)
				y := -math.Log(s.r.Float64())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return rn + x
			}
			return -rn - x
		}
		if fn[i]+float32(s.r.Float64())*(fn[i-1]-fn[i]) < float32(math.Exp(-.5*x*x)) {
			return x
		}
		j = int32(s.src.Uint64() >> 31)
		if x, fast := ziggurat(j); fast {
			return x
		}
	}
}

// Perm returns a random permutation of [0,n).
func (s *Stream) Perm(n int) []int { return s.r.Perm(n) }
