package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vipipe/internal/obs"
	"vipipe/internal/service/wire"
)

// tinySpec is the smallest configuration that still exercises every
// flow step: the reduced test core with trimmed sample counts.
var tinySpec = ConfigSpec{Small: true, Seed: 1, MCSamples: 60, VISamples: 24, FIRSamples: 8, FIRTaps: 4}

// slowSpec is tinySpec with a Monte Carlo run long enough for a test
// to catch the job in the running state and cancel it.
var slowSpec = ConfigSpec{Small: true, Seed: 1, MCSamples: 400000, VISamples: 24, FIRSamples: 8, FIRTaps: 4}

func newTestServer(t *testing.T, workers, queueCap int) (*httptest.Server, *Manager, *Metrics) {
	t.Helper()
	m := NewMetrics()
	mgr := NewManager(NewEngine(NewCache(64<<20), m), m, workers, queueCap,
		WithRecorder(obs.NewRecorder(8)))
	ts := httptest.NewServer(NewServer(mgr, m))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_, _ = mgr.Drain(ctx)
	})
	return ts, mgr, m
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("decode %q: %v", b, err)
	}
}

func submit(t *testing.T, base string, req Request, wantStatus int) JobSnapshot {
	t.Helper()
	resp := postJSON(t, base+"/jobs", req)
	if resp.StatusCode != wantStatus {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("submit = %d, body %s; want %d", resp.StatusCode, b, wantStatus)
	}
	var snap JobSnapshot
	decodeBody(t, resp, &snap)
	return snap
}

// waitState polls a job until pred holds or the deadline passes.
func waitState(t *testing.T, base, id string, pred func(JobSnapshot) bool) JobSnapshot {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var snap JobSnapshot
		decodeBody(t, resp, &snap)
		if pred(snap) {
			return snap
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached the wanted state", id)
	return JobSnapshot{}
}

func metricsSnapshot(t *testing.T, base string) Snapshot {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	decodeBody(t, resp, &s)
	return s
}

func TestServiceLifecycle(t *testing.T) {
	ts, _, _ := newTestServer(t, 2, 16)

	resp := postJSON(t, ts.URL+"/jobs", Request{Kind: "characterize", Position: "A", Config: tinySpec})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d; want 202", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	var snap JobSnapshot
	decodeBody(t, resp, &snap)
	if loc != "/jobs/"+snap.ID {
		t.Fatalf("Location = %q; want /jobs/%s", loc, snap.ID)
	}

	done := waitState(t, ts.URL, snap.ID, func(s JobSnapshot) bool { return s.State.Terminal() })
	if done.State != JobDone {
		t.Fatalf("job finished %s (%s); want done", done.State, done.Error)
	}

	rr, err := http.Get(ts.URL + loc + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("result = %d; want 200", rr.StatusCode)
	}
	var res wire.MCResult
	decodeBody(t, rr, &res)
	if res.Position != "A" || res.Samples != tinySpec.MCSamples || len(res.Stages) == 0 {
		t.Fatalf("result = %+v; want position A with %d samples and stages", res, tinySpec.MCSamples)
	}

	// The job shows up in the listing and in /metrics.
	lr, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var all []JobSnapshot
	decodeBody(t, lr, &all)
	if len(all) != 1 || all[0].ID != snap.ID {
		t.Fatalf("list = %+v; want the one job", all)
	}
	ms := metricsSnapshot(t, ts.URL)
	if ms.Jobs.Completed != 1 || ms.Jobs.Submitted != 1 {
		t.Fatalf("metrics jobs = %+v; want 1 submitted, 1 completed", ms.Jobs)
	}
	if ms.Latency["job.characterize"].Count != 1 {
		t.Fatalf("latency = %+v; want one job.characterize sample", ms.Latency)
	}
}

func TestServiceRejectsBadSubmissions(t *testing.T) {
	ts, _, m := newTestServer(t, 1, 4)

	cases := []struct {
		name string
		body string
		want int
	}{
		{"unknown kind", `{"kind":"frobnicate","config":{"small":true}}`, 400},
		{"unknown position", `{"kind":"characterize","position":"Z","config":{"small":true}}`, 400},
		{"unknown strategy", `{"kind":"islands","strategy":"diagonal","config":{"small":true}}`, 400},
		{"scenario out of range", `{"kind":"scenario_power","strategy":"vertical","position":"A","scenario":7,"config":{"small":true}}`, 400},
		{"unknown field", `{"kind":"characterize","position":"A","bogus":1}`, 400},
		{"mc_samples 2^40", `{"kind":"characterize","position":"A","config":{"small":true,"mc_samples":1099511627776}}`, 400},
		{"vi_samples 2^40", `{"kind":"islands","strategy":"vertical","config":{"small":true,"vi_samples":1099511627776}}`, 400},
		{"mc_samples past the limit", fmt.Sprintf(`{"kind":"drc","config":{"small":true,"mc_samples":%d}}`, MaxSamples+1), 400},
		{"fir_samples MaxInt", fmt.Sprintf(`{"kind":"chipwide_power","position":"A","config":{"small":true,"fir_samples":%d,"fir_taps":2}}`, math.MaxInt), 400},
		{"fir_taps MaxInt", fmt.Sprintf(`{"kind":"chipwide_power","position":"A","config":{"fir_taps":%d}}`, math.MaxInt), 400},
		{"whatif past MaxQueries", `{"kind":"whatif","strategy":"vertical","position":"B","config":{"small":true},"queries":[` +
			strings.Repeat(`{"raise":0},`, MaxQueries) + `{"raise":0}]}`, 400},
		{"body past the limit", `{"kind":"drc","config":{"small":true},"client":"` + strings.Repeat("x", maxRequestBytes) + `"}`, 400},
		{"garbage", `{nope`, 400},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewBufferString(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var eb struct {
			Error string `json:"error"`
			Class string `json:"class"`
		}
		code := resp.StatusCode
		decodeBody(t, resp, &eb)
		if code != tc.want || eb.Class != "bad-input" {
			t.Errorf("%s: status %d class %q (%s); want %d bad-input", tc.name, code, eb.Class, eb.Error, tc.want)
		}
	}
	if got := m.JobsRejected.Load(); got < 4 {
		t.Fatalf("rejected = %d; want the validated rejections counted", got)
	}

	// Unknown job everywhere: 404.
	for _, ep := range []string{"/jobs/job-999999", "/jobs/job-999999/result"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d; want 404", ep, resp.StatusCode)
		}
	}
	resp := postJSON(t, ts.URL+"/jobs/job-999999/cancel", struct{}{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel unknown = %d; want 404", resp.StatusCode)
	}
}

func TestServiceCancelRunningJob(t *testing.T) {
	ts, _, _ := newTestServer(t, 1, 4)

	snap := submit(t, ts.URL, Request{Kind: "characterize", Position: "B", Config: slowSpec}, http.StatusAccepted)
	waitState(t, ts.URL, snap.ID, func(s JobSnapshot) bool { return s.State == JobRunning })

	// Result before terminal: 409 via ErrStepOrder.
	rr, err := http.Get(ts.URL + "/jobs/" + snap.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusConflict {
		t.Fatalf("early result = %d; want 409", rr.StatusCode)
	}

	cr := postJSON(t, ts.URL+"/jobs/"+snap.ID+"/cancel", struct{}{})
	if cr.StatusCode != http.StatusOK {
		t.Fatalf("cancel = %d; want 200", cr.StatusCode)
	}
	cr.Body.Close()

	done := waitState(t, ts.URL, snap.ID, func(s JobSnapshot) bool { return s.State.Terminal() })
	if done.State != JobCancelled || done.Class != "cancelled" {
		t.Fatalf("after cancel: state %s class %q; want cancelled/cancelled", done.State, done.Class)
	}

	rr, err = http.Get(ts.URL + "/jobs/" + snap.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var eb struct {
		Class string `json:"class"`
	}
	code := rr.StatusCode
	decodeBody(t, rr, &eb)
	if code != 499 || eb.Class != "cancelled" {
		t.Fatalf("cancelled result = %d class %q; want 499 cancelled", code, eb.Class)
	}
	if ms := metricsSnapshot(t, ts.URL); ms.Jobs.Cancelled != 1 {
		t.Fatalf("metrics cancelled = %d; want 1", ms.Jobs.Cancelled)
	}
}

func TestServiceCancelQueuedJobAndQueueFull(t *testing.T) {
	ts, _, _ := newTestServer(t, 1, 1)

	// Occupy the single worker, then fill the single queue slot.
	running := submit(t, ts.URL, Request{Kind: "characterize", Position: "A", Config: slowSpec}, http.StatusAccepted)
	waitState(t, ts.URL, running.ID, func(s JobSnapshot) bool { return s.State == JobRunning })
	queued := submit(t, ts.URL, Request{Kind: "characterize", Position: "B", Config: slowSpec}, http.StatusAccepted)

	resp := postJSON(t, ts.URL+"/jobs", Request{Kind: "characterize", Position: "C", Config: slowSpec})
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit to full queue = %d; want 429", resp.StatusCode)
	}

	// Cancelling the queued job terminates it without a worker.
	cr := postJSON(t, ts.URL+"/jobs/"+queued.ID+"/cancel", struct{}{})
	var snap JobSnapshot
	decodeBody(t, cr, &snap)
	if snap.State != JobCancelled {
		t.Fatalf("queued job after cancel = %s; want cancelled immediately", snap.State)
	}

	// Unblock the worker for cleanup.
	postJSON(t, ts.URL+"/jobs/"+running.ID+"/cancel", struct{}{}).Body.Close()
	waitState(t, ts.URL, running.ID, func(s JobSnapshot) bool { return s.State.Terminal() })
}

// TestServiceConcurrentClients drives ≥8 clients with mixed request
// kinds sharing one configuration, so the content-addressed cache and
// the singleflight paths are exercised under the race detector.
func TestServiceConcurrentClients(t *testing.T) {
	ts, _, _ := newTestServer(t, 4, 32)

	reqs := []Request{
		{Kind: "characterize", Position: "A", Config: tinySpec},
		{Kind: "characterize", Position: "B", Config: tinySpec},
		{Kind: "characterize", Position: "C", Config: tinySpec},
		{Kind: "characterize", Position: "D", Config: tinySpec},
		{Kind: "islands", Strategy: "vertical", Config: tinySpec},
		{Kind: "islands", Strategy: "horizontal", Config: tinySpec},
		{Kind: "chipwide_power", Position: "A", Config: tinySpec},
		{Kind: "scenario_power", Strategy: "vertical", Position: "A", Scenario: 2, Config: tinySpec},
		{Kind: "sweep", Strategy: "vertical", Config: tinySpec},
		{Kind: "drc", Config: tinySpec},
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(reqs))
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req Request) {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/jobs", req)
			if resp.StatusCode != http.StatusAccepted {
				resp.Body.Close()
				errs <- fmt.Errorf("client %d: submit = %d", i, resp.StatusCode)
				return
			}
			var snap JobSnapshot
			decodeBody(t, resp, &snap)
			done := waitState(t, ts.URL, snap.ID, func(s JobSnapshot) bool { return s.State.Terminal() })
			if done.State != JobDone {
				errs <- fmt.Errorf("client %d (%s): state %s: %s", i, req.Kind, done.State, done.Error)
				return
			}
			rr, err := http.Get(ts.URL + "/jobs/" + snap.ID + "/result")
			if err != nil {
				errs <- err
				return
			}
			defer rr.Body.Close()
			if rr.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("client %d: result = %d", i, rr.StatusCode)
			}
		}(i, req)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	ms := metricsSnapshot(t, ts.URL)
	if ms.Jobs.Completed != int64(len(reqs)) {
		t.Fatalf("completed = %d; want %d", ms.Jobs.Completed, len(reqs))
	}
	// Ten jobs over one config hash: one baseline build, everything
	// else reuses it, so the cache must report hits.
	if ms.Cache.Hits == 0 {
		t.Fatalf("cache stats = %+v; want shared-config hits", ms.Cache)
	}
	if ms.Cache.HitRate <= 0 {
		t.Fatalf("hit rate = %v; want positive", ms.Cache.HitRate)
	}
}

func TestServiceDrainKeepsCompletedResults(t *testing.T) {
	ts, mgr, _ := newTestServer(t, 2, 8)

	snap := submit(t, ts.URL, Request{Kind: "islands", Strategy: "vertical", Config: tinySpec}, http.StatusAccepted)
	done := waitState(t, ts.URL, snap.ID, func(s JobSnapshot) bool { return s.State.Terminal() })
	if done.State != JobDone {
		t.Fatalf("job = %s (%s); want done", done.State, done.Error)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	stats, err := mgr.Drain(ctx)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if stats.Aborted != 0 {
		t.Fatalf("drain stats = %+v; want no aborted jobs", stats)
	}

	// Completed results survive the drain...
	rr, err := http.Get(ts.URL + "/jobs/" + snap.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("post-drain result = %d; want 200", rr.StatusCode)
	}
	// ...and new submissions are refused with 503.
	resp := postJSON(t, ts.URL+"/jobs", Request{Kind: "drc", Config: tinySpec})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d; want 503", resp.StatusCode)
	}
}

func TestFlightRecorderEndpoints(t *testing.T) {
	ts, _, _ := newTestServer(t, 2, 8)

	snap := submit(t, ts.URL, Request{Kind: "characterize", Position: "A", Config: tinySpec}, http.StatusAccepted)
	done := waitState(t, ts.URL, snap.ID, func(s JobSnapshot) bool { return s.State.Terminal() })
	if done.State != JobDone {
		t.Fatalf("job = %s (%s); want done", done.State, done.Error)
	}

	// The index lists the finished job, newest first.
	resp, err := http.Get(ts.URL + "/debug/runs")
	if err != nil {
		t.Fatal(err)
	}
	var runs []obs.Summary
	decodeBody(t, resp, &runs)
	if len(runs) != 1 || runs[0].ID != snap.ID || runs[0].Name != "characterize" {
		t.Fatalf("/debug/runs = %+v; want one entry for %s", runs, snap.ID)
	}
	if runs[0].Spans == 0 {
		t.Fatalf("recorded trace has no spans: %+v", runs[0])
	}

	// The trace endpoint serves the same Chrome trace-event format the
	// CLIs write, with the per-node cache attribute present.
	resp, err = http.Get(ts.URL + "/debug/trace/" + snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace/%s = %d; want 200", snap.ID, resp.StatusCode)
	}
	f, err := obs.ParseChrome(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if f.OtherData["trace_id"] != snap.ID {
		t.Fatalf("trace_id = %q; want %q", f.OtherData["trace_id"], snap.ID)
	}
	cached := 0
	for _, ev := range f.TraceEvents {
		if ev.Args["cache"] != "" {
			cached++
		}
	}
	if cached == 0 {
		t.Fatalf("no node spans with cache attrs among %d events", len(f.TraceEvents))
	}

	// Unknown IDs 404.
	resp, err = http.Get(ts.URL + "/debug/trace/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace = %d; want 404", resp.StatusCode)
	}
}

func TestPprofOnlyWithOption(t *testing.T) {
	ts, _, _ := newTestServer(t, 1, 4)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without WithPprof = %d; want 404", resp.StatusCode)
	}

	m := NewMetrics()
	mgr := NewManager(NewEngine(NewCache(1<<20), m), m, 1, 4)
	dbg := httptest.NewServer(NewServer(mgr, m, WithPprof()))
	defer dbg.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, _ = mgr.Drain(ctx)
	}()
	resp, err = http.Get(dbg.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof with WithPprof = %d; want 200", resp.StatusCode)
	}
}

func TestDrainDeadlineCancelsRunningJobs(t *testing.T) {
	ts, mgr, _ := newTestServer(t, 1, 4)

	snap := submit(t, ts.URL, Request{Kind: "characterize", Position: "A", Config: slowSpec}, http.StatusAccepted)
	waitState(t, ts.URL, snap.ID, func(s JobSnapshot) bool { return s.State == JobRunning })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	stats, err := mgr.Drain(ctx)
	if err == nil {
		t.Fatal("drain returned nil despite a job outliving the deadline")
	}
	job, _ := mgr.Get(snap.ID)
	if st := job.Snapshot().State; st != JobCancelled {
		t.Fatalf("job after forced drain = %s; want cancelled", st)
	}
	if stats.Aborted != 1 {
		t.Fatalf("drain stats = %+v; want the deadline-cancelled job counted as aborted", stats)
	}
}

// TestJobTableBounded: the job table of a long-running daemon stays
// bounded. After 4,196 jobs served from a warm engine's cache it holds
// only the newest maxTerminalJobs finished ones; the first 100 IDs get
// 404 saying they expired, on status, result and cancel, while an ID
// that never existed keeps its own message; the newest jobs still
// serve results, and the counters still count every job.
func TestJobTableBounded(t *testing.T) {
	ts, mgr, m := newTestServer(t, 2, 64)
	const extra = 100
	req := Request{Kind: "characterize", Position: "A", Config: tinySpec}
	var ids []string
	for i := 0; i < maxTerminalJobs+extra; i++ {
		job, err := mgr.Submit(req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		<-job.Done()
		ids = append(ids, job.ID)
	}
	if got := m.JobsCompleted.Load(); got != maxTerminalJobs+extra {
		t.Fatalf("jobs completed = %d; want %d", got, maxTerminalJobs+extra)
	}
	list := mgr.List()
	if len(list) != maxTerminalJobs {
		t.Fatalf("table holds %d jobs; want %d", len(list), maxTerminalJobs)
	}
	if list[0].ID != ids[extra] || list[len(list)-1].ID != ids[len(ids)-1] {
		t.Fatalf("table spans %s..%s; want %s..%s", list[0].ID, list[len(list)-1].ID, ids[extra], ids[len(ids)-1])
	}

	get := func(method, path string) (int, errorBody) {
		t.Helper()
		r, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body errorBody
		_ = json.NewDecoder(resp.Body).Decode(&body) // success bodies are not errorBody
		return resp.StatusCode, body
	}
	for i, id := range ids[:extra] {
		paths := []string{"/jobs/" + id}
		if i == 0 || i == extra-1 {
			paths = append(paths, "/jobs/"+id+"/result", "/jobs/"+id+"/cancel")
		}
		for _, p := range paths {
			method := http.MethodGet
			if strings.HasSuffix(p, "/cancel") {
				method = http.MethodPost
			}
			code, body := get(method, p)
			if code != http.StatusNotFound || !strings.Contains(body.Error, "expired") {
				t.Fatalf("%s %s = %d %q; want 404 saying the job expired", method, p, code, body.Error)
			}
		}
	}
	for _, id := range []string{"job-999999", "job-1", "bogus"} {
		code, body := get(http.MethodGet, "/jobs/"+id)
		if code != http.StatusNotFound || !strings.Contains(body.Error, "no job") {
			t.Fatalf("GET /jobs/%s = %d %q; want 404 no job", id, code, body.Error)
		}
	}
	for _, id := range []string{ids[extra], ids[len(ids)-1]} {
		if code, body := get(http.MethodGet, "/jobs/"+id+"/result"); code != http.StatusOK {
			t.Fatalf("result of %s = %d %q; want 200", id, code, body.Error)
		}
	}
}
