package service

import (
	"net/http"
	"testing"

	"vipipe/internal/service/wire"
)

// TestServiceWhatIf exercises the whatif job kind end to end: one
// submission carrying composed queries plus one out-of-domain query,
// answered against a single cached timing model, with the two serving
// paths split in /metrics.
func TestServiceWhatIf(t *testing.T) {
	ts, _, _ := newTestServer(t, 2, 16)

	req := Request{
		Kind:     "whatif",
		Strategy: "vertical",
		Position: "B",
		Queries: []WhatIfSpec{
			{Raise: 0},
			{Raise: 1, Shifters: true},
			{Raise: 1, Overlay: &OverlaySpec{XMM: 0.3, YMM: 0.3, RMM: 0.2, DeltaFrac: 0.05}},
			// DeltaFrac far beyond the model's validity domain forces
			// the exact-STA fallback.
			{Raise: 0, Overlay: &OverlaySpec{XMM: 0.3, YMM: 0.3, RMM: 0.2, DeltaFrac: 0.5}},
		},
		Config: tinySpec,
	}
	snap := submit(t, ts.URL, req, http.StatusAccepted)
	done := waitState(t, ts.URL, snap.ID, func(s JobSnapshot) bool { return s.State.Terminal() })
	if done.State != JobDone {
		t.Fatalf("job finished %s (%s); want done", done.State, done.Error)
	}

	rr, err := http.Get(ts.URL + "/jobs/" + snap.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("result = %d; want 200", rr.StatusCode)
	}
	var res wire.WhatIf
	decodeBody(t, rr, &res)
	if res.Strategy != "vertical" || res.Position != "B" || res.Islands == 0 {
		t.Fatalf("result header = %+v; want vertical/B with islands", res)
	}
	if len(res.Answers) != len(req.Queries) {
		t.Fatalf("got %d answers; want %d", len(res.Answers), len(req.Queries))
	}
	for i, ans := range res.Answers[:3] {
		if ans.Exact {
			t.Errorf("answer %d took the fallback; want composed", i)
		}
		if ans.BoundPS <= 0 || ans.CritPS <= 0 {
			t.Errorf("answer %d = %+v; want positive crit and bound", i, ans)
		}
	}
	if !res.Answers[1].Shifters || res.Answers[1].Crossings == 0 {
		t.Errorf("shifter answer = %+v; want crossings folded in", res.Answers[1])
	}
	last := res.Answers[3]
	if !last.Exact || last.BoundPS != 0 {
		t.Errorf("out-of-domain answer = %+v; want exact fallback with zero bound", last)
	}

	ms := metricsSnapshot(t, ts.URL)
	if got := ms.Counters["whatif.composed"]; got != 3 {
		t.Errorf("whatif.composed = %d; want 3", got)
	}
	if got := ms.Counters["whatif.fallback"]; got != 1 {
		t.Errorf("whatif.fallback = %d; want 1", got)
	}
}

// TestServiceWhatIfValidation pins the synchronous rejections of the
// whatif kind.
func TestServiceWhatIfValidation(t *testing.T) {
	bad := []Request{
		{Kind: "whatif", Strategy: "diagonal", Position: "B",
			Queries: []WhatIfSpec{{Raise: 0}}, Config: tinySpec},
		{Kind: "whatif", Strategy: "vertical", Position: "Z",
			Queries: []WhatIfSpec{{Raise: 0}}, Config: tinySpec},
		{Kind: "whatif", Strategy: "vertical", Position: "B", Config: tinySpec},
		{Kind: "whatif", Strategy: "vertical", Position: "B",
			Queries: []WhatIfSpec{{Raise: -2}}, Config: tinySpec},
		{Kind: "whatif", Strategy: "vertical", Position: "B",
			Queries: []WhatIfSpec{{Raise: 0, Overlay: &OverlaySpec{RMM: -1}}}, Config: tinySpec},
		{Kind: "whatif", Strategy: "vertical", Position: "B",
			Queries: make([]WhatIfSpec, MaxQueries+1), Config: tinySpec},
	}
	for i, req := range bad {
		if _, err := resolve(req); err == nil {
			t.Errorf("request %d validated; want rejection", i)
		}
	}
	for _, ok := range []Request{
		{Kind: "whatif", Strategy: "vertical", Position: "B",
			Queries: []WhatIfSpec{{Raise: 2, Shifters: true}}, Config: tinySpec},
		{Kind: "whatif", Strategy: "vertical", Position: "B",
			Queries: make([]WhatIfSpec, MaxQueries), Config: tinySpec},
	} {
		if _, err := resolve(ok); err != nil {
			t.Errorf("valid request with %d queries rejected: %v", len(ok.Queries), err)
		}
	}
}

// TestServiceWhatIfRejectsNonPhysicalOverlays pins the HTTP side: a
// die-covering overlay with delta_frac -2 or 1e300 (valid JSON) is a
// 400 bad-input at submit, not a job that computes and then fails to
// encode +Inf.
func TestServiceWhatIfRejectsNonPhysicalOverlays(t *testing.T) {
	ts, _, _ := newTestServer(t, 1, 4)
	for _, delta := range []float64{-2, 1e300} {
		req := Request{Kind: "whatif", Strategy: "vertical", Position: "B", Config: tinySpec,
			Queries: []WhatIfSpec{{Raise: 0, Overlay: &OverlaySpec{XMM: 1, YMM: 1, RMM: 1000, DeltaFrac: delta}}}}
		resp := postJSON(t, ts.URL+"/jobs", req)
		var eb struct {
			Class string `json:"class"`
		}
		code := resp.StatusCode
		decodeBody(t, resp, &eb)
		if code != http.StatusBadRequest || eb.Class != "bad-input" {
			t.Errorf("delta_frac %g: status %d class %q; want 400 bad-input", delta, code, eb.Class)
		}
	}
}
