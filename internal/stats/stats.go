// Package stats provides the small statistical toolkit used by the
// SSTA flow: descriptive statistics, the normal distribution, normal
// fitting with a chi-square goodness-of-fit test, histograms, and
// deterministic seeded random streams.
//
// A Stream draws exactly what math/rand draws from the same seed. It
// runs a copy of math/rand's generator and ziggurat (source.go,
// tables.go) so that a Monte Carlo chip's normals come from one loop
// without an interface call per draw, and it seeds that generator in
// four independent lanes instead of one chain (see source). Outside
// tests, no other package of the module imports math/rand.
//
// The paper fits Monte Carlo critical-path samples to a normal
// distribution through a chi-square goodness-of-fit test at a 95%
// confidence level (Section 4.3); this package implements exactly that
// machinery on top of the standard library.
package stats

import (
	"math"
	"sort"

	"vipipe/internal/flowerr"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64 // sample standard deviation (n-1 denominator)
	Min    float64
	Max    float64
}

// Summarize computes descriptive statistics for xs.
// It returns a zero Summary when xs is empty.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(len(xs)-1))
	}
	return s
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 { return Summarize(xs).Mean }

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return Summarize(xs).StdDev }

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. It sorts a copy.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	rank := p / 100 * float64(len(cp)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return cp[lo]
	}
	frac := rank - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// Normal is a normal (Gaussian) distribution.
type Normal struct {
	Mu    float64
	Sigma float64
}

// PDF returns the probability density at x.
func (n Normal) PDF(x float64) float64 {
	if n.Sigma <= 0 {
		return 0
	}
	z := (x - n.Mu) / n.Sigma
	return math.Exp(-0.5*z*z) / (n.Sigma * math.Sqrt(2*math.Pi))
}

// CDF returns the cumulative probability P(X <= x).
func (n Normal) CDF(x float64) float64 {
	if n.Sigma <= 0 {
		if x < n.Mu {
			return 0
		}
		return 1
	}
	return 0.5 * math.Erfc(-(x-n.Mu)/(n.Sigma*math.Sqrt2))
}

// Quantile returns the x such that CDF(x) = p, for p in (0,1).
func (n Normal) Quantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	return n.Mu + n.Sigma*math.Sqrt2*math.Erfinv(2*p-1)
}

// ThreeSigmaHigh returns mu + 3 sigma, the upper 3-sigma point the
// paper uses to size worst-case degradation.
func (n Normal) ThreeSigmaHigh() float64 { return n.Mu + 3*n.Sigma }

// FitNormal estimates a Normal from samples by moment matching.
func FitNormal(xs []float64) (Normal, error) {
	if len(xs) < 2 {
		return Normal{}, flowerr.BadInputf("stats: need at least 2 samples to fit a normal")
	}
	s := Summarize(xs)
	return Normal{Mu: s.Mean, Sigma: s.StdDev}, nil
}

// GOFResult reports a chi-square goodness-of-fit test outcome.
type GOFResult struct {
	ChiSquare float64 // test statistic
	DOF       int     // degrees of freedom
	PValue    float64 // P(X^2 >= ChiSquare) under H0
	Accepted  bool    // true when PValue >= alpha
	Bins      int     // number of bins actually used
}

// ChiSquareNormalTest tests whether xs is consistent with the given
// normal distribution at significance level alpha (the paper uses
// alpha = 0.05, i.e. a 95% confidence level). Bins with an expected
// count below 5 are merged with their neighbours, following standard
// practice. Degrees of freedom are bins-1-2 (two fitted parameters).
func ChiSquareNormalTest(xs []float64, dist Normal, alpha float64) (GOFResult, error) {
	if len(xs) < 20 {
		return GOFResult{}, flowerr.BadInputf("stats: chi-square test needs at least 20 samples")
	}
	if dist.Sigma <= 0 {
		return GOFResult{}, flowerr.BadInputf("stats: chi-square test needs sigma > 0")
	}
	// Equiprobable bins: expected count is identical in each, which
	// keeps the merge step trivial and the test well-conditioned.
	nbins := int(math.Max(5, math.Floor(float64(len(xs))/10)))
	if nbins > 30 {
		nbins = 30
	}
	expected := float64(len(xs)) / float64(nbins)
	for expected < 5 && nbins > 3 {
		nbins--
		expected = float64(len(xs)) / float64(nbins)
	}
	edges := make([]float64, nbins+1)
	edges[0] = math.Inf(-1)
	edges[nbins] = math.Inf(1)
	for i := 1; i < nbins; i++ {
		edges[i] = dist.Quantile(float64(i) / float64(nbins))
	}
	observed := make([]float64, nbins)
	for _, x := range xs {
		// Binary search for the bin.
		idx := sort.SearchFloat64s(edges[1:nbins], x)
		observed[idx]++
	}
	chi2 := 0.0
	for _, o := range observed {
		d := o - expected
		chi2 += d * d / expected
	}
	dof := nbins - 1 - 2
	if dof < 1 {
		dof = 1
	}
	p := ChiSquareSF(chi2, dof)
	return GOFResult{
		ChiSquare: chi2,
		DOF:       dof,
		PValue:    p,
		Accepted:  p >= alpha,
		Bins:      nbins,
	}, nil
}

// KolmogorovSmirnovTest compares xs against the given normal with the
// one-sample KS statistic, returning the statistic and an approximate
// p-value (Kolmogorov distribution asymptotics with the Stephens
// small-sample correction). It complements the chi-square test: the KS
// statistic is less sensitive to binning and heavier-tailed
// alternatives.
func KolmogorovSmirnovTest(xs []float64, dist Normal, alpha float64) (GOFResult, error) {
	n := len(xs)
	if n < 8 {
		return GOFResult{}, flowerr.BadInputf("stats: KS test needs at least 8 samples")
	}
	if dist.Sigma <= 0 {
		return GOFResult{}, flowerr.BadInputf("stats: KS test needs sigma > 0")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	d := 0.0
	for i, x := range sorted {
		f := dist.CDF(x)
		lo := f - float64(i)/float64(n)
		hi := float64(i+1)/float64(n) - f
		if lo > d {
			d = lo
		}
		if hi > d {
			d = hi
		}
	}
	// Stephens correction for finite n.
	en := math.Sqrt(float64(n))
	lambda := (en + 0.12 + 0.11/en) * d
	p := ksPValue(lambda)
	return GOFResult{
		ChiSquare: d, // the KS statistic, reusing the field
		DOF:       n,
		PValue:    p,
		Accepted:  p >= alpha,
	}, nil
}

// ksPValue evaluates the Kolmogorov distribution survival function
// Q(lambda) = 2 sum_{j>=1} (-1)^{j-1} exp(-2 j^2 lambda^2).
func ksPValue(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	sum := 0.0
	sign := 1.0
	for j := 1; j <= 100; j++ {
		term := sign * math.Exp(-2*float64(j*j)*lambda*lambda)
		sum += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	p := 2 * sum
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
