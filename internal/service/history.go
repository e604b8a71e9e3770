package service

import (
	"sync"
	"time"

	"vipipe/internal/obs"
)

// MetricsHistory is the rolling-telemetry ring: a fixed-capacity
// sequence of condensed metrics snapshots sampled periodically by the
// daemon, with delta/rate computation over a requested window. It
// turns the lifetime totals of /metrics into time series — cache hit
// rate, queue depth, degraded-store transitions, throttle counters —
// served at GET /metrics/history?window=...
//
// Points are condensed (no latency histograms): a day of 2s samples
// stays a few hundred KiB.
type MetricsHistory struct {
	mu     sync.Mutex
	cap    int
	now    func() time.Time
	points []HistoryPoint // oldest first, len <= cap
}

// HistoryPoint is one condensed sample.
type HistoryPoint struct {
	TS          time.Time        `json:"ts"`
	UptimeS     float64          `json:"uptime_s"`
	Jobs        JobCounters      `json:"jobs"`
	CacheHits   int64            `json:"cache_hits"`
	CacheMisses int64            `json:"cache_misses"`
	HitRate     float64          `json:"hit_rate"`
	Degraded    bool             `json:"degraded"`
	StoreMode   string           `json:"store_mode"`
	Counters    map[string]int64 `json:"counters,omitempty"`
}

// NewMetricsHistory returns a ring retaining the last n samples
// (n <= 0 defaults to 600 — 20 minutes at the daemon's 2s interval).
func NewMetricsHistory(n int) *MetricsHistory {
	return NewMetricsHistoryWithClock(n, obs.Now)
}

// NewMetricsHistoryWithClock is NewMetricsHistory with an injectable
// clock, so tests pin timestamps and window math deterministically.
func NewMetricsHistoryWithClock(n int, now func() time.Time) *MetricsHistory {
	if n <= 0 {
		n = 600
	}
	return &MetricsHistory{cap: n, now: now}
}

// Record condenses a snapshot into the ring, evicting the oldest
// point when full. Nil-safe, so an unwired server can still serve an
// empty history.
func (h *MetricsHistory) Record(s Snapshot) {
	if h == nil {
		return
	}
	p := HistoryPoint{
		UptimeS:     s.UptimeS,
		Jobs:        s.Jobs,
		CacheHits:   s.Cache.Hits,
		CacheMisses: s.Cache.Misses,
		HitRate:     s.Cache.HitRate,
		Degraded:    s.Degraded,
		StoreMode:   s.Store.Mode,
	}
	if len(s.Counters) > 0 {
		p.Counters = make(map[string]int64, len(s.Counters))
		for name, v := range s.Counters {
			p.Counters[name] = v
		}
	}
	h.mu.Lock()
	p.TS = h.now()
	if len(h.points) == h.cap {
		copy(h.points, h.points[1:])
		h.points = h.points[:h.cap-1]
	}
	h.points = append(h.points, p)
	h.mu.Unlock()
}

// HistoryView is the /metrics/history payload: the points inside the
// window (oldest first) plus rates derived from the window's first
// and last points (nil with fewer than two points).
type HistoryView struct {
	WindowS float64        `json:"window_s"`
	Points  []HistoryPoint `json:"points"`
	Rates   *HistoryRates  `json:"rates,omitempty"`
}

// HistoryRates are the first-to-last deltas of a window, normalized
// per second where that is meaningful. WindowHitRate is the cache hit
// rate of the window's traffic alone (not the lifetime ratio).
type HistoryRates struct {
	SpanS          float64            `json:"span_s"`
	SubmittedPerS  float64            `json:"submitted_per_s"`
	CompletedPerS  float64            `json:"completed_per_s"`
	FailedPerS     float64            `json:"failed_per_s"`
	RejectedPerS   float64            `json:"rejected_per_s"`
	WindowHitRate  float64            `json:"window_hit_rate"`
	CounterPerS    map[string]float64 `json:"counter_per_s,omitempty"`
	QueueDepth     int                `json:"queue_depth"`
	WorkersBusy    int64              `json:"workers_busy"`
	Degraded       bool               `json:"degraded"`
	DegradedEvents int                `json:"degraded_events"`
}

// View returns the points recorded within the trailing window
// (window <= 0 means everything retained) and their derived rates.
func (h *MetricsHistory) View(window time.Duration) HistoryView {
	out := HistoryView{WindowS: window.Seconds(), Points: []HistoryPoint{}}
	if h == nil {
		return out
	}
	h.mu.Lock()
	pts := make([]HistoryPoint, len(h.points))
	copy(pts, h.points)
	cutoffOK := window > 0
	var cutoff time.Time
	if cutoffOK {
		cutoff = h.now().Add(-window)
	}
	h.mu.Unlock()

	for _, p := range pts {
		if cutoffOK && p.TS.Before(cutoff) {
			continue
		}
		out.Points = append(out.Points, p)
	}
	if len(out.Points) >= 2 {
		out.Rates = rates(out.Points)
	}
	return out
}

func rates(pts []HistoryPoint) *HistoryRates {
	first, last := pts[0], pts[len(pts)-1]
	span := last.TS.Sub(first.TS).Seconds()
	r := &HistoryRates{
		SpanS:       span,
		QueueDepth:  last.Jobs.QueueDepth,
		WorkersBusy: last.Jobs.WorkersBusy,
		Degraded:    last.Degraded,
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Degraded && !pts[i-1].Degraded {
			r.DegradedEvents++
		}
	}
	if span <= 0 {
		return r
	}
	r.SubmittedPerS = float64(last.Jobs.Submitted-first.Jobs.Submitted) / span
	r.CompletedPerS = float64(last.Jobs.Completed-first.Jobs.Completed) / span
	r.FailedPerS = float64(last.Jobs.Failed-first.Jobs.Failed) / span
	r.RejectedPerS = float64(last.Jobs.Rejected-first.Jobs.Rejected) / span
	hits := last.CacheHits - first.CacheHits
	misses := last.CacheMisses - first.CacheMisses
	if hits+misses > 0 {
		r.WindowHitRate = float64(hits) / float64(hits+misses)
	}
	for name, v := range last.Counters {
		d := v - first.Counters[name]
		if d == 0 {
			continue
		}
		if r.CounterPerS == nil {
			r.CounterPerS = make(map[string]float64)
		}
		r.CounterPerS[name] = float64(d) / span
	}
	return r
}
