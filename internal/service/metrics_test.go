package service

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestHistogramObserve(t *testing.T) {
	h := newHistogram()
	h.Observe(500 * time.Microsecond) // le_1
	h.Observe(3 * time.Millisecond)   // le_5
	h.Observe(600 * time.Millisecond) // le_1000
	h.Observe(2 * time.Minute)        // overflow

	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d; want 4", s.Count)
	}
	want := map[string]int64{"le_1": 1, "le_5": 1, "le_1000": 1, "le_inf": 1}
	for k, n := range want {
		if s.Buckets[k] != n {
			t.Errorf("bucket %s = %d; want %d (all: %v)", k, s.Buckets[k], n, s.Buckets)
		}
	}
	if s.MaxMS != 120000 {
		t.Errorf("max = %vms; want 120000", s.MaxMS)
	}
	if s.P50MS != 500 {
		t.Errorf("p50 = %vms; want 500 (rank 2 lands at the start of the 500..1000 bucket)", s.P50MS)
	}
	if s.P95MS != s.MaxMS {
		t.Errorf("p95 = %vms; want max for overflow-bucket tail", s.P95MS)
	}
	if s.P99MS != s.MaxMS {
		t.Errorf("p99 = %vms; want max for overflow-bucket tail", s.P99MS)
	}
	if s.MeanMS <= 0 {
		t.Errorf("mean = %vms; want positive", s.MeanMS)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				h.Observe(time.Duration(j) * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 800 {
		t.Fatalf("count = %d; want 800", s.Count)
	}
}

func TestMetricsSnapshot(t *testing.T) {
	m := NewMetrics()
	m.JobsSubmitted.Add(3)
	m.JobsCompleted.Add(2)
	m.JobsFailed.Add(1)
	m.ObserveStep("baseline", 40*time.Millisecond)
	m.ObserveStep("baseline", 60*time.Millisecond)
	m.ObserveStep("mc", 5*time.Millisecond)

	cache := NewCache(1 << 10)
	if _, err := cache.Do(context.Background(), "k", func() (any, int64, error) { return "v", 1, nil }); err != nil {
		t.Fatal(err) // one miss
	}

	s := m.Snapshot(cache, nil)
	if s.Jobs.Submitted != 3 || s.Jobs.Completed != 2 || s.Jobs.Failed != 1 {
		t.Fatalf("job counters = %+v", s.Jobs)
	}
	if s.Cache.Misses != 1 || s.Cache.CapBytes != 1<<10 {
		t.Fatalf("cache view = %+v", s.Cache)
	}
	if got := s.Latency["baseline"].Count; got != 2 {
		t.Fatalf("baseline count = %d; want 2", got)
	}
	if got := s.Latency["mc"].Count; got != 1 {
		t.Fatalf("mc count = %d; want 1", got)
	}
	if s.UptimeS < 0 {
		t.Fatalf("uptime = %v", s.UptimeS)
	}
}

// TestHistogramPercentileInterpolation pins interpolated percentiles
// against exact quantiles on a synthetic uniform spread: 24 samples at
// 26..49ms all land in the (25,50] bucket, where linear interpolation
// recovers the uniform distribution's quantiles exactly. The old
// upper-bound rule reported 50 for every one of these.
func TestHistogramPercentileInterpolation(t *testing.T) {
	h := newHistogram()
	for ms := 26; ms <= 49; ms++ {
		h.Observe(time.Duration(ms) * time.Millisecond)
	}
	s := h.Snapshot()
	exact := map[string][2]float64{
		"p50": {s.P50MS, 37.5},  // 25 + 0.50*25
		"p90": {s.P90MS, 47.5},  // 25 + 0.90*25
		"p95": {s.P95MS, 48.75}, // 25 + 0.95*25
		"p99": {s.P99MS, 49.75}, // 25 + 0.99*25
	}
	for name, v := range exact {
		got, want := v[0], v[1]
		if got < want-1e-9 || got > want+1e-9 {
			t.Errorf("%s = %vms; want %v (exact uniform quantile)", name, got, want)
		}
	}
	// A single-sample histogram interpolates from the bucket's lower
	// bound, never above the observed max's bucket bound.
	h2 := newHistogram()
	h2.Observe(30 * time.Millisecond)
	if s2 := h2.Snapshot(); s2.P50MS < 25 || s2.P50MS > 50 {
		t.Errorf("single-sample p50 = %vms; want within its (25,50] bucket", s2.P50MS)
	}
}

// TestHistogramPercentileOrder pins P50 <= P90 <= P95 <= P99 on a
// spread of samples (ties are fine but inversions are not).
func TestHistogramPercentileOrder(t *testing.T) {
	h := newHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i*4) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.P50MS > s.P90MS || s.P90MS > s.P95MS || s.P95MS > s.P99MS {
		t.Fatalf("percentiles out of order: p50=%v p90=%v p95=%v p99=%v",
			s.P50MS, s.P90MS, s.P95MS, s.P99MS)
	}
	if s.P95MS <= s.P50MS {
		t.Fatalf("p95 = %v not above p50 = %v for a 4..400ms spread", s.P95MS, s.P50MS)
	}
}

// TestMetricsSnapshotConcurrentWriters drives Snapshot while other
// goroutines observe and increment — run under -race this proves the
// registry's documented concurrency safety.
func TestMetricsSnapshotConcurrentWriters(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				m.ObserveStep("step", time.Duration(j%50)*time.Millisecond)
				m.Inc("writes")
				m.JobsSubmitted.Add(1)
			}
		}(i)
	}
	for i := 0; i < 200; i++ {
		s := m.Snapshot(nil, nil)
		if got := s.Latency["step"]; got.Count > 0 && got.P50MS > got.P99MS {
			t.Errorf("snapshot %d: p50 %v > p99 %v", i, got.P50MS, got.P99MS)
		}
	}
	close(stop)
	wg.Wait()
	final := m.Snapshot(nil, nil)
	if final.Counters["writes"] != final.Latency["step"].Count {
		t.Fatalf("writes counter %d != step observations %d",
			final.Counters["writes"], final.Latency["step"].Count)
	}
}

func TestObserveStepNilRegistry(t *testing.T) {
	var m *Metrics
	m.ObserveStep("baseline", time.Second) // must not panic
}

func TestFormatBound(t *testing.T) {
	cases := map[float64]string{1: "le_1", 25: "le_25", 30000: "le_30000"}
	for ms, want := range cases {
		if got := formatBound(ms); got != want {
			t.Errorf("formatBound(%v) = %q; want %q", ms, got, want)
		}
	}
}
