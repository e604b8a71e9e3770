package service

import (
	"testing"
	"time"
)

// histClock advances a settable fake clock for the history ring.
type histClock struct{ t time.Time }

func (c *histClock) now() time.Time          { return c.t }
func (c *histClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newHistClock() *histClock               { return &histClock{t: time.Unix(1000, 0)} }
func snapAt(jobs JobCounters, hits, misses int64) Snapshot {
	return Snapshot{
		Jobs:  jobs,
		Cache: CacheStatsView{CacheStats: CacheStats{Hits: hits, Misses: misses}},
		Store: StoreStatus{Mode: "ok"},
	}
}

func TestHistoryRingEviction(t *testing.T) {
	clk := newHistClock()
	h := NewMetricsHistoryWithClock(3, clk.now)
	for i := 0; i < 5; i++ {
		h.Record(snapAt(JobCounters{Submitted: int64(i)}, 0, 0))
		clk.advance(time.Second)
	}
	v := h.View(0)
	if len(v.Points) != 3 || v.Points[0].Jobs.Submitted != 2 || v.Points[2].Jobs.Submitted != 4 {
		t.Fatalf("points = %+v, want submitted 2..4 oldest first", v.Points)
	}
}

func TestHistoryWindowAndRates(t *testing.T) {
	clk := newHistClock()
	h := NewMetricsHistoryWithClock(16, clk.now)
	// t=0: 0 jobs, cold cache. t=+10s: 20 submitted / 15 completed,
	// 30 hits / 10 misses. One sample in between to prove windowing.
	h.Record(snapAt(JobCounters{}, 0, 0))
	clk.advance(5 * time.Second)
	h.Record(snapAt(JobCounters{Submitted: 8, Completed: 5}, 10, 5))
	clk.advance(5 * time.Second)
	s := snapAt(JobCounters{Submitted: 20, Completed: 15, QueueDepth: 2, WorkersBusy: 1}, 30, 10)
	s.Counters = map[string]int64{"yield.shards_computed": 100}
	h.Record(s)

	v := h.View(0)
	if len(v.Points) != 3 || v.Rates == nil {
		t.Fatalf("view = %+v", v)
	}
	r := v.Rates
	if r.SpanS != 10 {
		t.Fatalf("span = %v, want 10s", r.SpanS)
	}
	if r.SubmittedPerS != 2.0 || r.CompletedPerS != 1.5 {
		t.Errorf("rates = %+v, want 2.0 submitted/s and 1.5 completed/s", r)
	}
	// Window traffic: 30 hits + 10 misses from zero => 0.75.
	if r.WindowHitRate != 0.75 {
		t.Errorf("window hit rate = %v, want 0.75", r.WindowHitRate)
	}
	if r.QueueDepth != 2 || r.WorkersBusy != 1 {
		t.Errorf("instantaneous tail = %+v", r)
	}
	if got := r.CounterPerS["yield.shards_computed"]; got != 10 {
		t.Errorf("counter rate = %v, want 10/s", got)
	}

	// A 6s window keeps only the last two points (5s apart).
	v = h.View(6 * time.Second)
	if len(v.Points) != 2 {
		t.Fatalf("6s window kept %d points, want 2", len(v.Points))
	}
	if v.Rates.SubmittedPerS != (20.0-8.0)/5.0 {
		t.Errorf("windowed submit rate = %v", v.Rates.SubmittedPerS)
	}

	// A window holding at most one point reports no rates.
	v = h.View(time.Second)
	if len(v.Points) != 1 || v.Rates != nil {
		t.Fatalf("1s window view = %+v, want one point and nil rates", v)
	}
}

func TestHistoryDegradedTransitions(t *testing.T) {
	clk := newHistClock()
	h := NewMetricsHistoryWithClock(8, clk.now)
	for _, degraded := range []bool{false, true, true, false, true} {
		s := snapAt(JobCounters{}, 0, 0)
		s.Degraded = degraded
		if degraded {
			s.Store.Mode = "degraded"
		}
		h.Record(s)
		clk.advance(time.Second)
	}
	r := h.View(0).Rates
	if r == nil || r.DegradedEvents != 2 {
		t.Fatalf("rates = %+v, want 2 degraded transitions", r)
	}
	if !r.Degraded {
		t.Error("tail degraded flag lost")
	}
}

func TestHistoryNilSafe(t *testing.T) {
	var h *MetricsHistory
	h.Record(Snapshot{})
	v := h.View(time.Minute)
	if len(v.Points) != 0 || v.Rates != nil {
		t.Errorf("nil view = %+v", v)
	}
}
