package stats

import "math"

// ChiSquareSF returns the survival function P(X >= x) of a chi-square
// distribution with k degrees of freedom, i.e. the p-value of a
// chi-square statistic. It is computed through the regularized upper
// incomplete gamma function Q(k/2, x/2).
func ChiSquareSF(x float64, k int) float64 {
	if x <= 0 {
		return 1
	}
	return regularizedGammaQ(float64(k)/2, x/2)
}

// regularizedGammaQ computes Q(a, x) = Gamma(a, x)/Gamma(a), the
// regularized upper incomplete gamma function, using the series
// expansion for x < a+1 and the continued fraction otherwise
// (Numerical Recipes style).
func regularizedGammaQ(a, x float64) float64 {
	switch {
	case x < 0 || a <= 0:
		return math.NaN()
	case x == 0:
		return 1
	case x < a+1:
		return 1 - lowerGammaSeries(a, x)
	default:
		return upperGammaCF(a, x)
	}
}

// lowerGammaSeries computes P(a,x) via its power series.
func lowerGammaSeries(a, x float64) float64 {
	const (
		maxIter = 500
		eps     = 1e-14
	)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < maxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			break
		}
	}
	lg, _ := math.Lgamma(a)
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// upperGammaCF computes Q(a,x) via the Lentz continued fraction.
func upperGammaCF(a, x float64) float64 {
	const (
		maxIter = 500
		eps     = 1e-14
		tiny    = 1e-300
	)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= maxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	lg, _ := math.Lgamma(a)
	return math.Exp(-x+a*math.Log(x)-lg) * h
}
