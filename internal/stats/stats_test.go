package stats

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.StdDev != 0 {
		t.Fatalf("empty summary not zero: %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	s := Summarize(xs)
	if s.N != 8 {
		t.Fatalf("N = %d, want 8", s.N)
	}
	if !almostEqual(s.Mean, 5, 1e-12) {
		t.Errorf("mean = %g, want 5", s.Mean)
	}
	// Sample stddev of this classic set is sqrt(32/7).
	if !almostEqual(s.StdDev, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("stddev = %g, want %g", s.StdDev, math.Sqrt(32.0/7.0))
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("min/max = %g/%g, want 2/9", s.Min, s.Max)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{3.5})
	if s.Mean != 3.5 || s.StdDev != 0 || s.Min != 3.5 || s.Max != 3.5 {
		t.Fatalf("single summary wrong: %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4}, {-5, 1}, {110, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("P%g = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("percentile of empty slice should be NaN")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Percentile(xs, 50)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestNormalPDFCDF(t *testing.T) {
	n := Normal{Mu: 0, Sigma: 1}
	if !almostEqual(n.PDF(0), 1/math.Sqrt(2*math.Pi), 1e-12) {
		t.Errorf("pdf(0) = %g", n.PDF(0))
	}
	if !almostEqual(n.CDF(0), 0.5, 1e-12) {
		t.Errorf("cdf(0) = %g", n.CDF(0))
	}
	if !almostEqual(n.CDF(1.959963985), 0.975, 1e-6) {
		t.Errorf("cdf(1.96) = %g", n.CDF(1.959963985))
	}
	shifted := Normal{Mu: 10, Sigma: 2}
	if !almostEqual(shifted.CDF(10), 0.5, 1e-12) {
		t.Errorf("shifted cdf(mu) = %g", shifted.CDF(10))
	}
	if shifted.ThreeSigmaHigh() != 16 {
		t.Errorf("3-sigma high = %g, want 16", shifted.ThreeSigmaHigh())
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	n := Normal{Mu: 3, Sigma: 0.7}
	for _, p := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		x := n.Quantile(p)
		if !almostEqual(n.CDF(x), p, 1e-9) {
			t.Errorf("CDF(Quantile(%g)) = %g", p, n.CDF(x))
		}
	}
	if !math.IsInf(n.Quantile(0), -1) || !math.IsInf(n.Quantile(1), 1) {
		t.Error("quantile edges should be infinite")
	}
}

func TestNormalDegenerateSigma(t *testing.T) {
	n := Normal{Mu: 1, Sigma: 0}
	if n.PDF(1) != 0 {
		t.Error("degenerate pdf should be 0")
	}
	if n.CDF(0.5) != 0 || n.CDF(1.5) != 1 {
		t.Error("degenerate cdf should be a step")
	}
}

func TestFitNormal(t *testing.T) {
	st := NewStream(42)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = st.Normal(2.5, 0.3)
	}
	n, err := FitNormal(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(n.Mu, 2.5, 0.02) || !almostEqual(n.Sigma, 0.3, 0.02) {
		t.Errorf("fit = %+v, want mu=2.5 sigma=0.3", n)
	}
	if _, err := FitNormal([]float64{1}); err == nil {
		t.Error("fit of 1 sample should fail")
	}
}

func TestChiSquareSFKnownValues(t *testing.T) {
	// Critical values: P(X >= x) for chi-square.
	cases := []struct {
		x    float64
		k    int
		want float64
	}{
		{3.841, 1, 0.05},
		{5.991, 2, 0.05},
		{16.919, 9, 0.05},
		{2.706, 1, 0.10},
		{23.209, 10, 0.01},
	}
	for _, c := range cases {
		if got := ChiSquareSF(c.x, c.k); !almostEqual(got, c.want, 2e-4) {
			t.Errorf("SF(%g, %d) = %g, want %g", c.x, c.k, got, c.want)
		}
	}
	if ChiSquareSF(-1, 3) != 1 || ChiSquareSF(0, 3) != 1 {
		t.Error("SF(x<=0) should be 1")
	}
	if !almostEqual(ChiSquareCDF(3.841, 1), 0.95, 2e-4) {
		t.Error("CDF complement broken")
	}
}

func TestChiSquareGOFAcceptsNormalData(t *testing.T) {
	st := NewStream(7)
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = st.Normal(0, 1)
	}
	fit, err := FitNormal(xs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ChiSquareNormalTest(xs, fit, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Errorf("normal data rejected: %+v", res)
	}
}

func TestChiSquareGOFRejectsUniformData(t *testing.T) {
	st := NewStream(9)
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = st.Float64() // uniform, clearly not normal
	}
	fit, _ := FitNormal(xs)
	res, err := ChiSquareNormalTest(xs, fit, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Errorf("uniform data accepted as normal: %+v", res)
	}
}

func TestChiSquareGOFErrors(t *testing.T) {
	if _, err := ChiSquareNormalTest([]float64{1, 2, 3}, Normal{0, 1}, 0.05); err == nil {
		t.Error("tiny sample should error")
	}
	xs := make([]float64, 50)
	if _, err := ChiSquareNormalTest(xs, Normal{0, 0}, 0.05); err == nil {
		t.Error("sigma=0 should error")
	}
}

func TestStreamDeterminism(t *testing.T) {
	a, b := NewStream(123), NewStream(123)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed streams diverged")
		}
	}
	c := DeriveStream(123, "x")
	d := DeriveStream(123, "x")
	e := DeriveStream(123, "y")
	same, diff := true, false
	for i := 0; i < 50; i++ {
		cv, dv, ev := c.Float64(), d.Float64(), e.Float64()
		if cv != dv {
			same = false
		}
		if cv != ev {
			diff = true
		}
	}
	if !same {
		t.Error("derived streams with same name differ")
	}
	if !diff {
		t.Error("derived streams with different names identical")
	}
}

// TestRederiveMatchesDeriveStream pins the derivation to FNV-1a of
// (seed bytes, name) — every recorded result depends on it — and proves
// a reused, reseeded stream draws exactly what a fresh one does,
// without allocating.
func TestRederiveMatchesDeriveStream(t *testing.T) {
	reused := NewStream(0)
	for _, seed := range []int64{0, 1, -7, 1 << 40} {
		for _, name := range []string{"", "mc/A/0", "mc/r3c12/65535", "place"} {
			h := fnv.New64a()
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(seed))
			h.Write(b[:])
			h.Write([]byte(name))
			ref := NewStream(int64(h.Sum64()))
			fresh := DeriveStream(seed, name)
			reused.Float64() // leave state behind for Rederive to clear
			reused.Rederive(seed, []byte(name))
			for i := 0; i < 200; i++ {
				want := ref.NormFloat64()
				if got := fresh.NormFloat64(); got != want {
					t.Fatalf("DeriveStream(%d, %q) draw %d = %v, want %v", seed, name, i, got, want)
				}
				if got := reused.NormFloat64(); got != want {
					t.Fatalf("Rederive(%d, %q) draw %d = %v, want %v", seed, name, i, got, want)
				}
			}
		}
	}
	name := []byte("mc/A/12")
	if n := testing.AllocsPerRun(20, func() { reused.Rederive(3, name) }); n != 0 {
		t.Errorf("Rederive allocates %v times per call", n)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.AddAll([]float64{-1, 0, 0.5, 5, 9.999, 10, 42})
	if h.Under != 1 {
		t.Errorf("under = %d, want 1", h.Under)
	}
	if h.Over != 2 {
		t.Errorf("over = %d, want 2", h.Over)
	}
	if h.Counts[0] != 2 {
		t.Errorf("bin0 = %d, want 2", h.Counts[0])
	}
	if h.Counts[9] != 1 {
		t.Errorf("bin9 = %d, want 1", h.Counts[9])
	}
	if h.Total() != 7 {
		t.Errorf("total = %d, want 7", h.Total())
	}
	if !almostEqual(h.BinCenter(0), 0.5, 1e-12) {
		t.Errorf("bin center = %g", h.BinCenter(0))
	}
	if h.Render(20) == "" {
		t.Error("render empty")
	}
}

func TestHistogramDensityIntegratesToCoverage(t *testing.T) {
	h := NewHistogram(-4, 4, 40)
	st := NewStream(5)
	n := 10000
	for i := 0; i < n; i++ {
		h.Add(st.Normal(0, 1))
	}
	integral := 0.0
	w := 8.0 / 40.0
	for i := range h.Counts {
		integral += h.Density(i) * w
	}
	inRange := float64(n-h.Under-h.Over) / float64(n)
	if !almostEqual(integral, inRange, 1e-9) {
		t.Errorf("density integral %g != in-range fraction %g", integral, inRange)
	}
}

func TestHistogramPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewHistogram(1, 0, 5)
}

// Property: percentile is monotone in p, and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, p1, p2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		a := math.Abs(math.Mod(p1, 100))
		b := math.Abs(math.Mod(p2, 100))
		if a > b {
			a, b = b, a
		}
		pa, pb := Percentile(xs, a), Percentile(xs, b)
		s := Summarize(xs)
		return pa <= pb && pa >= s.Min && pb <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: CDF is monotone non-decreasing and in [0,1].
func TestNormalCDFMonotoneProperty(t *testing.T) {
	f := func(mu, sigmaRaw, x1, x2 float64) bool {
		if math.IsNaN(mu) || math.IsNaN(sigmaRaw) || math.IsNaN(x1) || math.IsNaN(x2) {
			return true
		}
		if math.Abs(mu) > 1e6 || math.Abs(x1) > 1e6 || math.Abs(x2) > 1e6 {
			return true
		}
		sigma := 0.01 + math.Abs(math.Mod(sigmaRaw, 100))
		n := Normal{Mu: mu, Sigma: sigma}
		lo, hi := x1, x2
		if lo > hi {
			lo, hi = hi, lo
		}
		cl, ch := n.CDF(lo), n.CDF(hi)
		return cl <= ch+1e-15 && cl >= 0 && ch <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkChiSquareNormalTest(b *testing.B) {
	st := NewStream(1)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = st.Normal(0, 1)
	}
	fit, _ := FitNormal(xs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ChiSquareNormalTest(xs, fit, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

func TestKSAcceptsNormalRejectsUniform(t *testing.T) {
	st := NewStream(21)
	normal := make([]float64, 800)
	uniform := make([]float64, 800)
	for i := range normal {
		normal[i] = st.Normal(5, 2)
		uniform[i] = st.Float64() * 10
	}
	fitN, _ := FitNormal(normal)
	resN, err := KolmogorovSmirnovTest(normal, fitN, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !resN.Accepted {
		t.Errorf("KS rejected normal data: %+v", resN)
	}
	fitU, _ := FitNormal(uniform)
	resU, err := KolmogorovSmirnovTest(uniform, fitU, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if resU.Accepted {
		t.Errorf("KS accepted uniform data: %+v", resU)
	}
}

func TestKSValidation(t *testing.T) {
	if _, err := KolmogorovSmirnovTest([]float64{1, 2}, Normal{0, 1}, 0.05); err == nil {
		t.Error("tiny sample accepted")
	}
	xs := make([]float64, 20)
	if _, err := KolmogorovSmirnovTest(xs, Normal{0, 0}, 0.05); err == nil {
		t.Error("sigma=0 accepted")
	}
}

func TestKSPValueEdges(t *testing.T) {
	if ksPValue(0) != 1 {
		t.Error("lambda 0 should give p=1")
	}
	if p := ksPValue(10); p > 1e-10 {
		t.Errorf("huge lambda p=%g", p)
	}
	// Known point: Q(1.36) ~ 0.049 (the classic 5% critical value).
	if p := ksPValue(1.36); math.Abs(p-0.049) > 0.003 {
		t.Errorf("Q(1.36) = %g, want ~0.049", p)
	}
}
