package stats

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// TestStreamMatchesMathRand pins Stream to math/rand itself, not to
// another Stream: for edge seeds of the seed normalization and 10,000
// drawn ones, every method's draws, interleaved, equal
// rand.New(rand.NewSource(seed))'s bit for bit, through NewStream and
// through a reused stream's Rederive; and AddNormals equals the
// per-element Normal loop. The normal draws must include tail values
// (|z| > rn), so the ziggurat's out-of-line paths run.
func TestStreamMatchesMathRand(t *testing.T) {
	t.Run("methods", testMethodsMatchMathRand)
	t.Run("AddNormals", testAddNormalsMatchesNormalLoop)
}

func testMethodsMatchMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 89482311, 1<<31 - 2, 1<<31 - 1, 1 << 31, -(1<<31 - 1),
		math.MinInt64, math.MaxInt64,
	}
	pick := rand.New(rand.NewSource(2026))
	for len(seeds) < 10_010 {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	reused := NewStream(0)
	tails := 0
	for n, seed := range seeds {
		tails += matchMathRand(t, "NewStream", seed, NewStream(seed), rand.New(rand.NewSource(seed)))
		reused.Float64() // leave state behind for Rederive to clear
		name := []byte("mc/A/" + strconv.Itoa(n))
		ref := rand.New(rand.NewSource(deriveSeed(seed, name)))
		tails += matchMathRand(t, "Rederive", seed, reused.Rederive(seed, name), ref)
		if t.Failed() {
			return
		}
	}
	if tails == 0 {
		t.Fatal("no tail draw: the base-strip path never ran")
	}
}

// matchMathRand interleaves every Stream method with its math/rand
// counterpart and reports mismatches; it returns how many normal draws
// fell in the tail.
func matchMathRand(t *testing.T, how string, seed int64, s *Stream, r *rand.Rand) (tails int) {
	t.Helper()
	fail := func(op string, got, want any) {
		t.Errorf("%s(%d) %s = %v, want %v", how, seed, op, got, want)
	}
	for round := 0; round < 4; round++ {
		if got, want := s.NormFloat64(), r.NormFloat64(); math.Float64bits(got) != math.Float64bits(want) {
			fail("NormFloat64", got, want)
		} else if math.Abs(want) > rn {
			tails++
		}
		if got, want := s.Normal(65, 1.4), 65+1.4*r.NormFloat64(); math.Float64bits(got) != math.Float64bits(want) {
			fail("Normal", got, want)
		}
		if got, want := s.Float64(), r.Float64(); math.Float64bits(got) != math.Float64bits(want) {
			fail("Float64", got, want)
		}
		if got, want := s.Int63(), r.Int63(); got != want {
			fail("Int63", got, want)
		}
		for _, n := range []int{1, 7, 1<<31 - 1} {
			if got, want := s.Intn(n), r.Intn(n); got != want {
				fail("Intn("+strconv.Itoa(n)+")", got, want)
			}
		}
		if got, want := s.Perm(9), r.Perm(9); !equalInts(got, want) {
			fail("Perm", got, want)
		}
		got, want := []int{0, 1, 2, 3, 4, 5, 6, 7}, []int{0, 1, 2, 3, 4, 5, 6, 7}
		s.Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
		r.Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
		if !equalInts(got, want) {
			fail("Shuffle", got, want)
		}
	}
	return tails
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// testAddNormalsMatchesNormalLoop checks the one-pass chip draw against
// the per-element Normal loop: the same values bit for bit, in a
// separate or an aliased destination, and the stream left on the same
// next word. The lengths straddle one register cycle (607 words) and
// reach both core sizes (2,689 and 29,481 cells).
func testAddNormalsMatchesNormalLoop(t *testing.T) {
	const sigma = 1.4083
	tails := 0
	for _, n := range []int{0, 1, 606, 607, 608, 2689, 29481} {
		for seed := int64(1); seed <= 3; seed++ {
			base := make([]float64, n)
			fill := NewStream(-seed)
			for i := range base {
				base[i] = 65 * (1 + 0.05*fill.Float64())
			}
			// Start mid-register, so the loop's indices wrap anywhere.
			skip := int(seed*131) % rngLen
			ref := NewStream(seed)
			for i := 0; i < skip; i++ {
				ref.Int63()
			}
			want := make([]float64, n)
			for i := range want {
				want[i] = base[i] + ref.Normal(0, sigma)
				if math.Abs(want[i]-base[i]) > rn*sigma {
					tails++
				}
			}
			next := ref.Int63()

			sep, alias := make([]float64, n), append([]float64(nil), base...)
			for _, c := range []struct {
				name      string
				dst, base []float64
			}{{"separate", sep, base}, {"aliased", alias, alias}} {
				s := NewStream(seed)
				for i := 0; i < skip; i++ {
					s.Int63()
				}
				s.AddNormals(c.dst, c.base, sigma)
				for i := range want {
					if math.Float64bits(c.dst[i]) != math.Float64bits(want[i]) {
						t.Fatalf("n=%d seed=%d %s: dst[%d] = %v, want %v", n, seed, c.name, i, c.dst[i], want[i])
					}
				}
				if got := s.Int63(); got != next {
					t.Fatalf("n=%d seed=%d %s: next Int63 %d, want %d", n, seed, c.name, got, next)
				}
			}
		}
	}
	if tails == 0 {
		t.Fatal("no tail draw: the base-strip path never ran")
	}
}
