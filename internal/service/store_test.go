package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"vipipe"
	"vipipe/internal/obs"
	"vipipe/internal/pipeline"
	"vipipe/internal/pipeline/storetest"
	"vipipe/internal/service/wire"
)

// TestCacheConformance runs the shared Store conformance suite over
// the daemon's cache, the bounded pipeline.MemStore, with a bound
// nothing in the suite reaches.
func TestCacheConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) pipeline.Store {
		return NewCache(1 << 20)
	})
}

func newStoreServer(t *testing.T, workers, queueCap int, mgrOpts []ManagerOption, engOpts ...EngineOption) (*httptest.Server, *Manager, *Metrics) {
	t.Helper()
	m := NewMetrics()
	eng := NewEngine(NewCache(64<<20), m, engOpts...)
	mgr := NewManager(eng, m, workers, queueCap, append(mgrOpts, WithRecorder(obs.NewRecorder(8)))...)
	ts := httptest.NewServer(NewServer(mgr, m))
	t.Cleanup(func() {
		ts.Close()
		// Cancel whatever the test left queued or running — even on a
		// Fatalf exit — so the drain below never grinds through an
		// abandoned slowSpec computation.
		for _, snap := range mgr.List() {
			if !snap.State.Terminal() {
				mgr.Cancel(snap.ID)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_, _ = mgr.Drain(ctx)
	})
	return ts, mgr, m
}

func wantRetryAfter(t *testing.T, resp *http.Response) {
	t.Helper()
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("backpressure response missing Retry-After header")
	}
	if n, err := strconv.Atoi(ra); err != nil || n < 1 || n > 60 {
		t.Fatalf("Retry-After %q, want an integer in [1,60]", ra)
	}
}

// TestQueueFullBackpressure: a full queue answers 429 with a
// Retry-After header and bumps the dedicated queue_full counter.
func TestQueueFullBackpressure(t *testing.T) {
	ts, _, m := newStoreServer(t, 1, 1, nil)

	running := submit(t, ts.URL, Request{Kind: "characterize", Position: "A", Config: slowSpec}, http.StatusAccepted)
	waitState(t, ts.URL, running.ID, func(s JobSnapshot) bool { return s.State == JobRunning })
	submit(t, ts.URL, Request{Kind: "characterize", Position: "B", Config: slowSpec}, http.StatusAccepted)

	resp := postJSON(t, ts.URL+"/jobs", Request{Kind: "characterize", Position: "C", Config: slowSpec})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit to full queue = %d; want 429", resp.StatusCode)
	}
	wantRetryAfter(t, resp)
	if got := m.JobsQueueFull.Load(); got != 1 {
		t.Fatalf("queue_full counter = %d; want 1", got)
	}
	ms := metricsSnapshot(t, ts.URL)
	if ms.Jobs.QueueFull != 1 {
		t.Fatalf("metrics queue_full = %d; want 1", ms.Jobs.QueueFull)
	}
}

// TestClientQuotaFairness: with a quota of 1, a client's second
// queued job is throttled (dedicated counter, 429 + Retry-After)
// while another client still gets in.
func TestClientQuotaFairness(t *testing.T) {
	ts, _, m := newStoreServer(t, 1, 8, []ManagerOption{WithClientQuota(1)})

	running := submit(t, ts.URL, Request{Kind: "characterize", Position: "A", Config: slowSpec, Client: "warmup"}, http.StatusAccepted)
	waitState(t, ts.URL, running.ID, func(s JobSnapshot) bool { return s.State == JobRunning })

	submit(t, ts.URL, Request{Kind: "characterize", Position: "B", Config: slowSpec, Client: "alice"}, http.StatusAccepted)
	resp := postJSON(t, ts.URL+"/jobs", Request{Kind: "characterize", Position: "C", Config: slowSpec, Client: "alice"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second alice submit = %d; want 429 (quota 1)", resp.StatusCode)
	}
	wantRetryAfter(t, resp)
	resp.Body.Close()
	if got := m.JobsThrottled.Load(); got != 1 {
		t.Fatalf("throttled counter = %d; want 1", got)
	}

	// Fairness: the queue has room and bob's bucket is empty.
	submit(t, ts.URL, Request{Kind: "characterize", Position: "C", Config: slowSpec, Client: "bob"}, http.StatusAccepted)

	// The X-Client header is an alternative to the JSON field.
	body := `{"kind":"characterize","position":"D","config":{"small":true,"mc_samples":400000,"vi_samples":24,"fir_samples":8,"fir_taps":4}}`
	req, err := http.NewRequest("POST", ts.URL+"/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client", "alice")
	hresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("header-identified alice submit = %d; want 429", hresp.StatusCode)
	}
	if got := m.JobsThrottled.Load(); got != 2 {
		t.Fatalf("throttled counter = %d; want 2", got)
	}
}

// TestDrainDeadlineAbortsQueuedJobs: when the drain deadline expires,
// still-queued jobs are aborted along with the running ones — the
// workers must not pull them off the closed queue and blow past the
// deadline.
func TestDrainDeadlineAbortsQueuedJobs(t *testing.T) {
	ts, mgr, _ := newStoreServer(t, 1, 4, nil)

	running := submit(t, ts.URL, Request{Kind: "characterize", Position: "A", Config: slowSpec}, http.StatusAccepted)
	waitState(t, ts.URL, running.ID, func(s JobSnapshot) bool { return s.State == JobRunning })
	queued := submit(t, ts.URL, Request{Kind: "characterize", Position: "B", Config: slowSpec}, http.StatusAccepted)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	stats, err := mgr.Drain(ctx)
	if took := time.Since(start); took > 15*time.Second {
		t.Fatalf("expired drain took %v; the queued job must not run to completion", took)
	}
	if err == nil {
		t.Fatal("drain past its deadline returned nil error")
	}
	if stats.Aborted != 2 {
		t.Fatalf("drain stats %+v; want both jobs aborted", stats)
	}
	for _, id := range []string{running.ID, queued.ID} {
		job, ok := mgr.Get(id)
		if !ok {
			t.Fatalf("job %s missing after drain", id)
		}
		if st := job.Snapshot().State; st != JobCancelled {
			t.Fatalf("job %s state %v after expired drain; want cancelled", id, st)
		}
	}
}

// TestEngineDiskTierWarmRestart: a second engine over the same store
// dir serves the expensive characterization from disk instead of
// recomputing.
func TestEngineDiskTierWarmRestart(t *testing.T) {
	dir := t.TempDir()
	req := Request{Kind: "characterize", Position: "A", Config: tinySpec}

	ds, err := pipeline.OpenDiskStore(dir, vipipe.DiskCodecs())
	if err != nil {
		t.Fatalf("OpenDiskStore: %v", err)
	}
	eng := NewEngine(NewCache(64<<20), NewMetrics(), WithDiskStore(ds))
	res, err := eng.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	cold := res.(wire.MCResult)
	if st := ds.Stats(); st.Writes == 0 {
		t.Fatalf("disk stats after cold run %+v; want persisted artifacts", st)
	}

	// "Restart": new cache, new engine, same dir.
	ds2, err := pipeline.OpenDiskStore(dir, vipipe.DiskCodecs())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	eng2 := NewEngine(NewCache(64<<20), NewMetrics(), WithDiskStore(ds2))
	start := obs.Now()
	res2, err := eng2.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	warmDur := obs.Since(start)
	if st := ds2.Stats(); st.Hits == 0 {
		t.Fatalf("disk stats after warm run %+v; want hits", st)
	}
	warm := res2.(wire.MCResult)
	if warm.Samples != cold.Samples || warm.ClockPS != cold.ClockPS {
		t.Fatalf("warm result %+v differs from cold %+v", warm, cold)
	}
	t.Logf("warm characterize over a cold cache took %v via the disk tier", warmDur)
}

// TestDegradedStoreServing: an unusable store dir leaves the daemon
// fully serving while /metrics and job snapshots report degraded.
func TestDegradedStoreServing(t *testing.T) {
	base := t.TempDir()
	file := filepath.Join(base, "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := pipeline.OpenDiskStore(filepath.Join(file, "store"), vipipe.DiskCodecs())
	if err == nil {
		t.Fatal("expected an open error for a dir under a regular file")
	}
	ts, _, _ := newStoreServer(t, 2, 8, nil, WithDiskStore(ds))

	snap := submit(t, ts.URL, Request{Kind: "drc", Config: tinySpec}, http.StatusAccepted)
	if !snap.Degraded {
		t.Fatal("job snapshot does not report degraded with a broken store")
	}
	done := waitState(t, ts.URL, snap.ID, func(s JobSnapshot) bool { return s.State.Terminal() })
	if done.State != JobDone {
		t.Fatalf("job state %s (%s); want done — degraded mode must not fail requests", done.State, done.Error)
	}
	if !done.Degraded {
		t.Fatal("terminal snapshot lost the degraded flag")
	}

	ms := metricsSnapshot(t, ts.URL)
	if !ms.Degraded || ms.Store.Mode != "degraded" {
		t.Fatalf("metrics degraded=%v store.mode=%q; want degraded reporting", ms.Degraded, ms.Store.Mode)
	}
	if ms.Store.Disk == nil || !ms.Store.Disk.Degraded {
		t.Fatalf("metrics store.disk = %+v; want degraded disk stats", ms.Store.Disk)
	}
}

// TestMetricsStoreModeOff: without a disk store the snapshot says so.
func TestMetricsStoreModeOff(t *testing.T) {
	ts, _, _ := newStoreServer(t, 1, 2, nil)
	ms := metricsSnapshot(t, ts.URL)
	if ms.Store.Mode != "off" || ms.Store.Disk != nil || ms.Degraded {
		t.Fatalf("store section %+v degraded=%v; want mode off", ms.Store, ms.Degraded)
	}
}
