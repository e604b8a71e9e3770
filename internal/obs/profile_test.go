package obs

import (
	"context"
	"strings"
	"testing"
)

// buildDemoTrace drives a tiny run under the deterministic step clock
// (1ms per read): a root with a computed mc node and a cache-hit
// field shard served from disk.
func buildDemoTrace() *Trace {
	tr := NewTracerWithClock("t1", "demo", stepClock())
	ctx := WithTracer(context.Background(), tr)
	ctx, root := Start(ctx, "job.demo")

	_, a := Start(ctx, "mc/A")
	a.Lap("queue_wait_us")
	a.SetAttr("cache", "miss")
	a.SetAttr("bytes", 2048)
	a.End()

	_, b := Start(ctx, "field/r0c1-ab/0")
	b.SetAttr("cache", "hit")
	b.SetAttr("tier", "disk")
	b.End()

	root.End()
	return tr.Finish()
}

func TestProfileDemoTrace(t *testing.T) {
	p := Profile(buildDemoTrace())
	if p.WallUS != 6000 {
		t.Errorf("WallUS = %d, want 6000", p.WallUS)
	}
	if p.SelfTotalUS != 6000 {
		t.Errorf("SelfTotalUS = %d, want 6000", p.SelfTotalUS)
	}
	bySelf := map[string]int64{}
	for _, sp := range p.Spans {
		bySelf[sp.Name] = sp.SelfUS
	}
	// Root spans 1000..7000µs; children cover [2000,4000] and
	// [5000,6000], so the root keeps 3000µs of self time.
	if bySelf["job.demo"] != 3000 || bySelf["mc/A"] != 2000 || bySelf["field/r0c1-ab/0"] != 1000 {
		t.Errorf("self times = %v", bySelf)
	}
	// The field shard finishes last, so it is the critical child.
	if len(p.CriticalPath) != 2 || p.CriticalPath[0].Name != "job.demo" || p.CriticalPath[1].Name != "field/r0c1-ab/0" {
		t.Errorf("critical path = %+v", p.CriticalPath)
	}
	if p.CriticalPath[1].Cache != "hit" || p.CriticalPath[1].Tier != "disk" {
		t.Errorf("critical path attrs = %+v", p.CriticalPath[1])
	}
	if len(p.Nodes) == 0 || p.Nodes[0].Kind != "job.demo" || p.Nodes[0].SelfUS != 3000 {
		t.Errorf("top cost center = %+v", p.Nodes)
	}
	var mc NodeCost
	for _, nc := range p.Nodes {
		if nc.Kind == "mc" {
			mc = nc
		}
	}
	if mc.Misses != 1 || mc.Hits != 0 || mc.QueueUS != 1000 || mc.Bytes != 2048 {
		t.Errorf("mc cost = %+v", mc)
	}
}

// TestProfileGoldenText golden-compares the full text report under
// the fake clock — the same renderer /debug/profile?format=text and
// the CLIs' -profile flag use.
func TestProfileGoldenText(t *testing.T) {
	var buf strings.Builder
	if err := Profile(buildDemoTrace()).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	const want = `profile t1 (demo): wall 6.000ms, self 6.000ms over 3 spans
critical path:
  job.demo 6.000ms (self 3.000ms)
    field/r0c1-ab/0 1.000ms (self 1.000ms) cache=hit tier=disk
cost centers (by self time):
  kind                         self      %  spans  hit/miss  disk        queue      bytes
  job.demo                  3.000ms  50.0%      1       0/0     0      0.000ms          0
  mc                        2.000ms  33.3%      1       0/1     0      1.000ms       2048
  field                     1.000ms  16.7%      1       1/0     1      0.000ms          0
`
	if got := buf.String(); got != want {
		t.Errorf("profile text mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestProfileSelfTimeOverlappingChildren pins the interval-union
// rule: concurrent children that overlap each other are not double
// subtracted, and child time outside the parent's extent is clipped.
func TestProfileSelfTimeOverlappingChildren(t *testing.T) {
	tr := &Trace{ID: "x", Name: "overlap", Spans: []SpanData{
		{ID: 1, Name: "parent", StartUS: 0, DurUS: 200},
		{ID: 2, Parent: 1, Name: "c1", StartUS: 0, DurUS: 100},
		{ID: 3, Parent: 1, Name: "c2", StartUS: 50, DurUS: 100},
		{ID: 4, Parent: 1, Name: "c3", StartUS: 180, DurUS: 100}, // runs past the parent
	}}
	p := Profile(tr)
	for _, sp := range p.Spans {
		if sp.Name == "parent" && sp.SelfUS != 30 {
			// union = [0,150) + [180,200) = 170 of 200
			t.Errorf("parent self = %d, want 30", sp.SelfUS)
		}
	}
}

// TestProfileOrphanSpans: spans whose parent never ended profile as
// roots and still participate in the critical path.
func TestProfileOrphanSpans(t *testing.T) {
	tr := &Trace{ID: "o", Name: "orphans", Spans: []SpanData{
		{ID: 5, Parent: 99, Name: "lost", StartUS: 10, DurUS: 50},
	}}
	p := Profile(tr)
	if len(p.CriticalPath) != 1 || p.CriticalPath[0].Name != "lost" {
		t.Errorf("critical path = %+v", p.CriticalPath)
	}
	if p.Spans[0].SelfUS != 50 {
		t.Errorf("orphan self = %d, want 50", p.Spans[0].SelfUS)
	}
}

func TestProfileEmptyTrace(t *testing.T) {
	p := Profile(&Trace{ID: "e", Name: "empty"})
	if p.WallUS != 0 || len(p.Spans) != 0 || len(p.CriticalPath) != 0 || len(p.Nodes) != 0 {
		t.Errorf("empty profile = %+v", p)
	}
	var buf strings.Builder
	if err := p.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0 spans") {
		t.Errorf("empty text = %q", buf.String())
	}
}

func TestKindOf(t *testing.T) {
	cases := map[string]string{
		"mc/A":                  "mc",
		"field/r3c2-deadbe/3":   "field",
		"field/surface/ab12cd3": "field/surface",
		"job.field_sweep":       "job.field_sweep",
		"store.disk.read":       "store.disk.read",
		"synth":                 "synth",
	}
	for in, want := range cases {
		if got := kindOf(in); got != want {
			t.Errorf("kindOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestAggregateCosts(t *testing.T) {
	t1 := buildDemoTrace()
	t2 := buildDemoTrace()
	ct := AggregateCosts([]*Trace{t1, nil, t2})
	if ct.Runs != 2 {
		t.Fatalf("Runs = %d, want 2", ct.Runs)
	}
	if len(ct.Nodes) != 3 || ct.Nodes[0].Kind != "job.demo" || ct.Nodes[0].Spans != 2 {
		t.Errorf("aggregated nodes = %+v", ct.Nodes)
	}
	var total float64
	for _, nc := range ct.Nodes {
		total += nc.FracSelf
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("FracSelf sums to %f", total)
	}
	var buf strings.Builder
	if err := ct.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cost table over 2 runs") {
		t.Errorf("cost table text = %q", buf.String())
	}
}
