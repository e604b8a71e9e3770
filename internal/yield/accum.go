// Package yield runs Monte Carlo SSTA over a dense grid of
// exposure-field positions — the full 28×28mm field of the paper's
// Fig. 2, not just the four hand-picked diagonal chips — and reduces
// the samples into yield-vs-frequency surfaces.
//
// The package is built around shardability: a position's sample range
// is cut into shards, each shard folds its samples into streaming
// accumulators (Moments, Histogram, ShardStat), and the accumulators
// obey an exact merge law — folding any grouping of shards in any
// order produces bit-identical results. That law is what lets each
// shard become an independently cached artifact node in
// internal/pipeline: a warm re-sweep after a one-position tweak
// recomputes only that position's shards and re-folds the rest from
// the store, with no numeric drift between the two paths.
//
// Bit-exactness comes from integer arithmetic: sums accumulate in
// 128-bit fixed point (Fixed128) and histograms count in int64 bins,
// so merging is integer addition — associative and commutative by
// construction. Derived floats (mean, sigma, yields) are computed
// from the exact integers only at read time.
package yield

import (
	"math"
	"math/bits"
	"sort"

	"vipipe/internal/flowerr"
)

// fixedShift is the number of fractional bits of Fixed128: 2^-32 ps
// resolution, with 2^63 integer headroom — enough for 2^40 samples of
// million-ps critical paths.
const fixedShift = 32

// Fixed128 is a 128-bit two's-complement fixed-point accumulator with
// 32 fractional bits. Addition is exact and therefore associative and
// commutative, which float64 addition is not; it is the primitive that
// makes shard merging order-independent at the bit level.
type Fixed128 struct {
	Hi int64  // high 64 bits (signed)
	Lo uint64 // low 64 bits
}

// FixedFromFloat rounds v to the nearest representable fixed-point
// value. Inputs beyond ±2^31 (far outside any ps-scale statistic)
// saturate at the int64 conversion range; NaN contributes zero.
func FixedFromFloat(v float64) Fixed128 {
	scaled := math.Round(v * (1 << fixedShift))
	var n int64
	switch {
	case math.IsNaN(scaled):
		n = 0
	case scaled >= math.MaxInt64:
		n = math.MaxInt64
	case scaled <= math.MinInt64:
		n = math.MinInt64
	default:
		n = int64(scaled)
	}
	return Fixed128{Hi: n >> 63, Lo: uint64(n)}
}

// Add returns the exact 128-bit sum.
func (a Fixed128) Add(b Fixed128) Fixed128 {
	lo, carry := bits.Add64(a.Lo, b.Lo, 0)
	return Fixed128{Hi: a.Hi + b.Hi + int64(carry), Lo: lo}
}

// Float64 converts back to float64 (rounding once, at read time).
func (a Fixed128) Float64() float64 {
	hi, lo := a.Hi, a.Lo
	neg := false
	if hi < 0 {
		// Negate the 128-bit value, convert the magnitude.
		lo2, borrow := bits.Sub64(0, lo, 0)
		hi = -hi - int64(borrow)
		lo = lo2
		neg = true
	}
	v := (float64(uint64(hi))*0x1p64 + float64(lo)) / (1 << fixedShift)
	if neg {
		v = -v
	}
	return v
}

// Moments is a streaming first/second-moment accumulator over float64
// observations. Sum and SumSq are exact fixed-point integers, so
// Merge is associative and commutative bit-for-bit; Min/Max are exact
// comparisons. Count 0 means empty (Min/Max unset).
type Moments struct {
	Count int64
	Sum   Fixed128
	SumSq Fixed128
	Min   float64
	Max   float64
}

// Observe folds one value in.
func (m *Moments) Observe(v float64) {
	if m.Count == 0 || v < m.Min {
		m.Min = v
	}
	if m.Count == 0 || v > m.Max {
		m.Max = v
	}
	m.Count++
	m.Sum = m.Sum.Add(FixedFromFloat(v))
	m.SumSq = m.SumSq.Add(FixedFromFloat(v * v))
}

// Merge returns the combination of two accumulators: the result is
// identical to having observed both value sets in any order.
func (m Moments) Merge(o Moments) Moments {
	if m.Count == 0 {
		return o
	}
	if o.Count == 0 {
		return m
	}
	out := Moments{
		Count: m.Count + o.Count,
		Sum:   m.Sum.Add(o.Sum),
		SumSq: m.SumSq.Add(o.SumSq),
		Min:   math.Min(m.Min, o.Min),
		Max:   math.Max(m.Max, o.Max),
	}
	return out
}

// Mean returns the sample mean (0 when empty).
func (m Moments) Mean() float64 {
	if m.Count == 0 {
		return 0
	}
	return m.Sum.Float64() / float64(m.Count)
}

// Std returns the population standard deviation (0 when empty). It is
// a deterministic function of the exact integer sums, so merged and
// streamed accumulators report the same value to the last bit.
func (m Moments) Std() float64 {
	if m.Count == 0 {
		return 0
	}
	mean := m.Mean()
	v := m.SumSq.Float64()/float64(m.Count) - mean*mean
	if v < 0 {
		v = 0 // rounding guard: variance is non-negative
	}
	return math.Sqrt(v)
}

// Histogram counts observations against the period axis of a yield
// curve: bin i counts values v with Edge(i-1) < v <= Edge(i), Over
// counts values above the last edge. The edges replicate
// mc.Result.YieldCurve's period grid exactly, so the cumulative
// counts divided by the total reproduce Yield(p) bit-for-bit.
type Histogram struct {
	LoPS float64
	HiPS float64
	Bins []int64
	Over int64
}

// NewHistogram allocates a histogram over [loPS, hiPS] with n edges
// (n must be >= 1; callers normalize via CurveAxis first).
func NewHistogram(loPS, hiPS float64, n int) Histogram {
	if n < 1 {
		n = 1
	}
	return Histogram{LoPS: loPS, HiPS: hiPS, Bins: make([]int64, n)}
}

// Edge returns the i-th period edge, the same expression
// mc.Result.YieldCurve evaluates: lo + (hi-lo)*i/(n-1), degenerating
// to lo for a single-point axis.
func (h *Histogram) Edge(i int) float64 {
	n := len(h.Bins)
	if n <= 1 {
		return h.LoPS
	}
	return h.LoPS + (h.HiPS-h.LoPS)*float64(i)/float64(n-1)
}

// Observe counts one critical-path sample. The bin predicate is the
// exact comparison mc.Result.Yield uses (c <= period).
func (h *Histogram) Observe(c float64) {
	n := len(h.Bins)
	i := sort.Search(n, func(i int) bool { return c <= h.Edge(i) })
	if i == n {
		h.Over++
		return
	}
	h.Bins[i]++
}

// Total returns the number of observations folded in.
func (h *Histogram) Total() int64 {
	t := h.Over
	for _, b := range h.Bins {
		t += b
	}
	return t
}

// SameAxis reports whether two histograms share an identical axis.
func (h *Histogram) SameAxis(o *Histogram) bool {
	return h.LoPS == o.LoPS && h.HiPS == o.HiPS && len(h.Bins) == len(o.Bins)
}

// Merge returns the bin-wise sum. It never aliases either input's
// storage — merged results stay safe next to cached shard artifacts.
func (h Histogram) Merge(o Histogram) (Histogram, error) {
	if !h.SameAxis(&o) {
		return Histogram{}, flowerr.BadInputf(
			"yield: histogram axis mismatch: [%g,%g]x%d vs [%g,%g]x%d",
			h.LoPS, h.HiPS, len(h.Bins), o.LoPS, o.HiPS, len(o.Bins))
	}
	out := Histogram{LoPS: h.LoPS, HiPS: h.HiPS, Bins: make([]int64, len(h.Bins)), Over: h.Over + o.Over}
	for i := range h.Bins {
		out.Bins[i] = h.Bins[i] + o.Bins[i]
	}
	return out, nil
}

// Yields returns the yield-vs-period curve: for each edge, the
// fraction of observations at or below it. With the same axis and
// samples this is bit-identical to evaluating mc.Result.YieldCurve,
// because both divide an integer count by the integer total.
func (h *Histogram) Yields() []float64 {
	out := make([]float64, len(h.Bins))
	total := h.Total()
	if total == 0 {
		return out
	}
	var cum int64
	for i, b := range h.Bins {
		cum += b
		out[i] = float64(cum) / float64(total)
	}
	return out
}

// ShardStat is the artifact of one field/<pos>/<shard> node: the
// accumulated critical-path statistics of one shard's samples at one
// grid position, plus (when the plan overlays a local disturbance
// there) the same statistics for the perturbed chip. Merging the
// shards of a position in any grouping or order yields the identical
// position statistic.
type ShardStat struct {
	// Key is the position content key (Plan.PosKey); Merge refuses to
	// fold stats with different keys, which would silently mix
	// positions or stale plans.
	Key string
	// Pos is the grid position name.
	Pos string
	// Shards counts how many shard stats were folded in.
	Shards int
	// Samples counts the folded Monte Carlo samples.
	Samples int64

	Crit Moments
	Hist Histogram

	// HasOverlay marks that OvCrit/OvHist carry the overlay-perturbed
	// statistics (computed via incremental re-timing of the disturbed
	// cells).
	HasOverlay bool
	OvCrit     Moments
	OvHist     Histogram
}

// Merge folds another shard of the same position. The operation is
// associative and commutative: every field is an exact integer sum,
// an exact min/max, or an invariant checked for equality.
func (s ShardStat) Merge(o ShardStat) (ShardStat, error) {
	if s.Key != o.Key {
		return ShardStat{}, flowerr.BadInputf("yield: merging shard stats of different keys %q vs %q", s.Key, o.Key)
	}
	if s.HasOverlay != o.HasOverlay {
		return ShardStat{}, flowerr.BadInputf("yield: merging shard stats with mismatched overlay presence at %q", s.Pos)
	}
	hist, err := s.Hist.Merge(o.Hist)
	if err != nil {
		return ShardStat{}, err
	}
	out := ShardStat{
		Key:        s.Key,
		Pos:        s.Pos,
		Shards:     s.Shards + o.Shards,
		Samples:    s.Samples + o.Samples,
		Crit:       s.Crit.Merge(o.Crit),
		Hist:       hist,
		HasOverlay: s.HasOverlay,
	}
	if s.HasOverlay {
		ovHist, err := s.OvHist.Merge(o.OvHist)
		if err != nil {
			return ShardStat{}, err
		}
		out.OvCrit = s.OvCrit.Merge(o.OvCrit)
		out.OvHist = ovHist
	}
	return out, nil
}

// MergeShards folds a slice of shard stats left to right. Order does
// not affect the result (see Merge); a fixed order keeps reduce nodes
// trivially deterministic anyway.
func MergeShards(stats []*ShardStat) (ShardStat, error) {
	if len(stats) == 0 {
		return ShardStat{}, flowerr.BadInputf("yield: no shard stats to merge")
	}
	acc := *stats[0]
	for _, s := range stats[1:] {
		var err error
		acc, err = acc.Merge(*s)
		if err != nil {
			return ShardStat{}, err
		}
	}
	return acc, nil
}
