package service

import (
	"math"
	"net/http"
	"testing"

	"vipipe/internal/service/wire"
)

// fieldReq is the small field sweep the tests share: a 3x3 exposure
// grid, two shards per position, a nine-point yield axis over the
// reduced core.
func fieldReq() Request {
	return Request{Kind: "field_sweep", Grid: "3x3", Shards: 2, Points: 9, Config: tinySpec}
}

func runFieldJob(t *testing.T, base string, req Request) (JobSnapshot, wire.Surface) {
	t.Helper()
	snap := submit(t, base, req, http.StatusAccepted)
	done := waitState(t, base, snap.ID, func(s JobSnapshot) bool { return s.State.Terminal() })
	if done.State != JobDone {
		t.Fatalf("field_sweep job = %s (%s); want done", done.State, done.Error)
	}
	rr, err := http.Get(base + "/jobs/" + snap.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if rr.StatusCode != http.StatusOK {
		rr.Body.Close()
		t.Fatalf("result = %d; want 200", rr.StatusCode)
	}
	var surf wire.Surface
	decodeBody(t, rr, &surf)
	return done, surf
}

func TestServiceFieldSweep(t *testing.T) {
	ts, _, _ := newTestServer(t, 2, 16)
	req := fieldReq()

	done, surf := runFieldJob(t, ts.URL, req)

	if surf.NX != 3 || surf.NY != 3 || len(surf.Positions) != 9 {
		t.Fatalf("surface = %dx%d with %d positions; want 3x3 with 9", surf.NX, surf.NY, len(surf.Positions))
	}
	if len(surf.PeriodsPS) != req.Points {
		t.Fatalf("axis = %d points; want %d", len(surf.PeriodsPS), req.Points)
	}
	for _, p := range surf.Positions {
		if p.Samples != int64(tinySpec.MCSamples) || p.Shards != req.Shards {
			t.Fatalf("position %s: %d samples over %d shards; want %d over %d",
				p.Position, p.Samples, p.Shards, tinySpec.MCSamples, req.Shards)
		}
		if len(p.Yields) != req.Points {
			t.Fatalf("position %s: %d yields; want %d", p.Position, len(p.Yields), req.Points)
		}
	}

	// The finished snapshot carries the shard progress the worker
	// reported while running.
	total := 9 * req.Shards
	if done.Progress == nil || done.Progress.Done != total || done.Progress.Total != total {
		t.Fatalf("progress = %+v; want %d/%d", done.Progress, total, total)
	}

	// A cold sweep computes every shard.
	ms := metricsSnapshot(t, ts.URL)
	if ms.Counters["yield.shards_computed"] != int64(total) {
		t.Fatalf("shards_computed = %d; want %d (counters %v)",
			ms.Counters["yield.shards_computed"], total, ms.Counters)
	}
	if ms.Latency["artifact.field_shard"].Count != int64(total) {
		t.Fatalf("field_shard latency count = %d; want %d",
			ms.Latency["artifact.field_shard"].Count, total)
	}
}

func TestServiceFieldSweepWarmAndDirty(t *testing.T) {
	ts, _, _ := newTestServer(t, 2, 16)
	req := fieldReq()
	total := 9 * req.Shards

	runFieldJob(t, ts.URL, req)

	// An identical re-sweep resolves every shard from the store.
	_, warm := runFieldJob(t, ts.URL, req)
	ms := metricsSnapshot(t, ts.URL)
	if ms.Counters["yield.shards_cached"] != int64(total) {
		t.Fatalf("warm shards_cached = %d; want %d", ms.Counters["yield.shards_cached"], total)
	}
	if ms.Counters["yield.shards_computed"] != int64(total) {
		t.Fatalf("warm shards_computed = %d; want unchanged %d", ms.Counters["yield.shards_computed"], total)
	}
	if len(warm.Positions) != 9 {
		t.Fatalf("warm surface has %d positions; want 9", len(warm.Positions))
	}

	// An overlay at one position re-keys exactly that position's
	// shards; the other eight keep hitting the store.
	dirty := fieldReq()
	dirty.Overlays = []OverlaySpec{{Pos: "r1c1", XMM: 1, YMM: 1, RMM: 2, DeltaFrac: 0.05}}
	runFieldJob(t, ts.URL, dirty)
	ms = metricsSnapshot(t, ts.URL)
	if got := ms.Counters["yield.shards_computed"]; got != int64(total+req.Shards) {
		t.Fatalf("after overlay: shards_computed = %d; want %d (only f1_1 recomputed)",
			got, total+req.Shards)
	}
	if got := ms.Counters["yield.shards_cached"]; got != int64(2*total-req.Shards) {
		t.Fatalf("after overlay: shards_cached = %d; want %d", got, 2*total-req.Shards)
	}
}

func TestServiceFieldSweepCancel(t *testing.T) {
	ts, _, _ := newTestServer(t, 1, 4)

	req := Request{Kind: "field_sweep", Grid: "2x2", Shards: 2, Config: slowSpec}
	snap := submit(t, ts.URL, req, http.StatusAccepted)
	waitState(t, ts.URL, snap.ID, func(s JobSnapshot) bool { return s.State == JobRunning })

	cr := postJSON(t, ts.URL+"/jobs/"+snap.ID+"/cancel", struct{}{})
	cr.Body.Close()
	done := waitState(t, ts.URL, snap.ID, func(s JobSnapshot) bool { return s.State.Terminal() })
	if done.State != JobCancelled || done.Class != "cancelled" {
		t.Fatalf("after cancel: state %s class %q; want cancelled/cancelled", done.State, done.Class)
	}
}

func TestServiceFieldSweepRejectsBadPlans(t *testing.T) {
	ts, _, _ := newTestServer(t, 1, 4)

	cases := []struct {
		name string
		req  Request
	}{
		{"bad grid", Request{Kind: "field_sweep", Grid: "0x3", Config: tinySpec}},
		{"more shards than samples", Request{Kind: "field_sweep", Grid: "2x2", Shards: 1000, Config: tinySpec}},
		{"overlay off grid", Request{Kind: "field_sweep", Grid: "2x2",
			Overlays: []OverlaySpec{{Pos: "nope", RMM: 1, DeltaFrac: 0.1}}, Config: tinySpec}},
		{"overlay no radius", Request{Kind: "field_sweep", Grid: "2x2",
			Overlays: []OverlaySpec{{Pos: "r0c0", DeltaFrac: 0.1}}, Config: tinySpec}},
		{"overlay delta -2", Request{Kind: "field_sweep", Grid: "2x2",
			Overlays: []OverlaySpec{{Pos: "r0c0", RMM: 100, DeltaFrac: -2}}, Config: tinySpec}},
		{"overlay delta 1e300", Request{Kind: "field_sweep", Grid: "2x2",
			Overlays: []OverlaySpec{{Pos: "r0c0", RMM: 100, DeltaFrac: 1e300}}, Config: tinySpec}},
		// Sizes that would exhaust the daemon's memory unchecked: 10^10
		// positions at submit, a 2^31-bin histogram in a shard.
		{"grid 100000x100000", Request{Kind: "field_sweep", Grid: "100000x100000", Config: tinySpec}},
		{"grid past 64x64", Request{Kind: "field_sweep", Grid: "65x64", Config: tinySpec}},
		{"points 2^31-1", Request{Kind: "field_sweep", Grid: "2x2", Points: math.MaxInt32, Config: tinySpec}},
		{"shards past the limit", Request{Kind: "field_sweep", Grid: "2x2", Shards: 1000,
			Config: ConfigSpec{Small: true, MCSamples: 2000}}},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+"/jobs", tc.req)
		var eb struct {
			Class string `json:"class"`
		}
		code := resp.StatusCode
		decodeBody(t, resp, &eb)
		if code != http.StatusBadRequest || eb.Class != "bad-input" {
			t.Errorf("%s: status %d class %q; want 400 bad-input", tc.name, code, eb.Class)
		}
	}
}
