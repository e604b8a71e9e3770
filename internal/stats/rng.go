package stats

import "math/rand"

// Stream is a deterministic pseudo-random stream. Every stochastic
// component of the flow draws from a named Stream derived from a
// single root seed, so that the complete experiment is reproducible
// and individual components can be re-run in isolation with the same
// draws.
type Stream struct {
	r *rand.Rand
}

// NewStream returns a stream seeded with seed.
func NewStream(seed int64) *Stream {
	return &Stream{r: rand.New(rand.NewSource(seed))}
}

// DeriveStream derives an independent child stream identified by name.
// The derivation hashes (seed, name) so distinct names yield distinct,
// uncorrelated-for-our-purposes streams.
func DeriveStream(seed int64, name string) *Stream {
	return NewStream(deriveSeed(seed, name))
}

// Rederive reseeds s in place as the stream DeriveStream(seed,
// string(name)) and returns it. The draws that follow are identical to
// a fresh DeriveStream's (rand.Rand.Seed fully resets the source), but
// nothing is allocated: Monte Carlo loops rederive one stream per
// sample.
func (s *Stream) Rederive(seed int64, name []byte) *Stream {
	s.r.Seed(deriveSeed(seed, name))
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

// NormFloat64 returns a standard normal draw.
func (s *Stream) NormFloat64() float64 { return s.r.NormFloat64() }

// Normal returns a draw from N(mu, sigma^2).
func (s *Stream) Normal(mu, sigma float64) float64 {
	return mu + sigma*s.r.NormFloat64()
}

// Perm returns a random permutation of [0,n).
func (s *Stream) Perm(n int) []int { return s.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Stream) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }
