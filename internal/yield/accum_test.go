package yield

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// draws returns a deterministic pseudo-random critical-path sample
// set: values around 4000ps with occasional outliers past the axis.
func draws(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = 4000 + 600*rng.NormFloat64()
	}
	return out
}

func TestFixed128RoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1, -1, 4096.25, -4096.25, 1e9, -1e9, 0.0000001} {
		got := FixedFromFloat(v).Float64()
		if math.Abs(got-v) > 1.0/(1<<fixedShift) {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
	if FixedFromFloat(math.NaN()) != (Fixed128{}) {
		t.Error("NaN should contribute zero")
	}
}

func TestFixed128AddExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var acc Fixed128
	sum := 0.0
	for i := 0; i < 10000; i++ {
		v := math.Round((rng.Float64()*2000-1000)*(1<<fixedShift)) / (1 << fixedShift)
		acc = acc.Add(FixedFromFloat(v))
		sum += v
	}
	if got := acc.Float64(); math.Abs(got-sum) > 1e-3 {
		t.Fatalf("accumulated %v, float sum %v", got, sum)
	}
	// Negative totals convert correctly through the two's-complement path.
	neg := FixedFromFloat(-123456.75)
	if got := neg.Float64(); got != -123456.75 {
		t.Fatalf("negative conversion: %v", got)
	}
}

// TestMomentsMergeGroupingInvariance is the heart of the shard design:
// any partition of the observation stream, merged in any order, must
// reproduce the streamed accumulator field-for-field at the bit level.
func TestMomentsMergeGroupingInvariance(t *testing.T) {
	vals := draws(42, 5000)
	var want Moments
	for _, v := range vals {
		want.Observe(v)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		// Random contiguous partition.
		var parts []Moments
		for lo := 0; lo < len(vals); {
			hi := lo + 1 + rng.Intn(900)
			if hi > len(vals) {
				hi = len(vals)
			}
			var m Moments
			for _, v := range vals[lo:hi] {
				m.Observe(v)
			}
			parts = append(parts, m)
			lo = hi
		}
		// Merge in shuffled order (associative + commutative law).
		rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
		got := parts[0]
		for _, p := range parts[1:] {
			got = got.Merge(p)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: merged %+v != streamed %+v", trial, got, want)
		}
		if got.Mean() != want.Mean() || got.Std() != want.Std() {
			t.Fatalf("trial %d: derived stats differ", trial)
		}
	}
}

// TestHistogramMatchesDirectYield cross-checks the binned cumulative
// yields against the direct mc.Result.Yield computation (count of
// c <= p over total) on the same sample set — bit-identical.
func TestHistogramMatchesDirectYield(t *testing.T) {
	vals := draws(7, 3000)
	h := NewHistogram(3000, 5500, 33)
	for _, v := range vals {
		h.Observe(v)
	}
	if h.Total() != int64(len(vals)) {
		t.Fatalf("total %d != %d", h.Total(), len(vals))
	}
	yields := h.Yields()
	for i := range yields {
		p := h.Edge(i)
		met := 0
		for _, c := range vals {
			if c <= p {
				met++
			}
		}
		direct := float64(met) / float64(len(vals))
		if math.Float64bits(yields[i]) != math.Float64bits(direct) {
			t.Fatalf("edge %d (%.3f): yields %v != direct %v", i, p, yields[i], direct)
		}
	}
}

func TestHistogramMergeRejectsAxisMismatch(t *testing.T) {
	a := NewHistogram(0, 10, 4)
	b := NewHistogram(0, 11, 4)
	if _, err := a.Merge(b); err == nil {
		t.Error("axis mismatch accepted")
	}
	c := NewHistogram(0, 10, 5)
	if _, err := a.Merge(c); err == nil {
		t.Error("bin-count mismatch accepted")
	}
}

func TestHistogramMergeDoesNotAliasBins(t *testing.T) {
	a := NewHistogram(0, 10, 4)
	b := NewHistogram(0, 10, 4)
	a.Observe(1)
	b.Observe(2)
	m, err := a.Merge(b)
	if err != nil {
		t.Fatal(err)
	}
	m.Bins[0] = 99
	if a.Bins[0] == 99 || b.Bins[0] == 99 {
		t.Error("merge aliased an input's bins")
	}
}

func shardOf(key string, vals []float64, overlay bool) *ShardStat {
	s := &ShardStat{
		Key:        key,
		Pos:        "r0c0",
		Shards:     1,
		Hist:       NewHistogram(3000, 5500, 17),
		HasOverlay: overlay,
	}
	if overlay {
		s.OvHist = NewHistogram(3000, 5500, 17)
	}
	for _, v := range vals {
		s.Samples++
		s.Crit.Observe(v)
		s.Hist.Observe(v)
		if overlay {
			s.OvCrit.Observe(v * 1.01)
			s.OvHist.Observe(v * 1.01)
		}
	}
	return s
}

func TestShardStatMergeRejectsMismatches(t *testing.T) {
	a := shardOf("k1", draws(1, 50), false)
	b := shardOf("k2", draws(2, 50), false)
	if _, err := a.Merge(*b); err == nil {
		t.Error("key mismatch accepted")
	}
	c := shardOf("k1", draws(3, 50), true)
	if _, err := a.Merge(*c); err == nil {
		t.Error("overlay-presence mismatch accepted")
	}
	if _, err := MergeShards(nil); err == nil {
		t.Error("empty merge accepted")
	}
}

// TestShardStatMergeGroupingInvariance extends the merge law to the
// full shard artifact, overlays included: any grouping tree over any
// permutation folds to the identical struct.
func TestShardStatMergeGroupingInvariance(t *testing.T) {
	vals := draws(11, 4000)
	rng := rand.New(rand.NewSource(17))
	for _, overlay := range []bool{false, true} {
		// Reference: one shard over everything.
		want := *shardOf("k", vals, overlay)
		for trial := 0; trial < 10; trial++ {
			var shards []*ShardStat
			for lo := 0; lo < len(vals); {
				hi := lo + 1 + rng.Intn(700)
				if hi > len(vals) {
					hi = len(vals)
				}
				shards = append(shards, shardOf("k", vals[lo:hi], overlay))
				lo = hi
			}
			rng.Shuffle(len(shards), func(i, j int) { shards[i], shards[j] = shards[j], shards[i] })
			// Random grouping: repeatedly merge adjacent pairs.
			for len(shards) > 1 {
				i := rng.Intn(len(shards) - 1)
				m, err := shards[i].Merge(*shards[i+1])
				if err != nil {
					t.Fatal(err)
				}
				shards[i] = &m
				shards = append(shards[:i+1], shards[i+2:]...)
			}
			got := *shards[0]
			// Shards counts provenance, not statistics: normalize it
			// before demanding bit equality of the payload.
			got.Shards = want.Shards
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("overlay=%v trial %d: grouped merge differs from streamed", overlay, trial)
			}
		}
	}
}
