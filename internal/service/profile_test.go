package service

import (
	"context"
	"strings"
	"testing"

	"vipipe/internal/obs"
)

// TestFieldSweepProfileDominantNode records a real field sweep under
// a tracer and profiles it: the run profile must name the field-shard
// kind as the dominant self-time consumer and account its cache
// disposition — 18 misses cold, 18 hits warm.
func TestFieldSweepProfileDominantNode(t *testing.T) {
	m := NewMetrics()
	eng := NewEngine(NewCache(64<<20), m)
	req := fieldReq()
	req.Config.MCSamples = 2000 // enough Monte Carlo work that shards dominate the baseline

	run := func(name string) *obs.RunProfile {
		tr := obs.NewTracer(name, "field_sweep")
		ctx := obs.WithTracer(context.Background(), tr)
		ctx, root := obs.Start(ctx, "job.field_sweep")
		if _, err := eng.Run(ctx, req); err != nil {
			t.Fatal(err)
		}
		root.End()
		return obs.Profile(tr.Finish())
	}

	cold := run("cold")
	if len(cold.Nodes) == 0 {
		t.Fatal("cold profile has no cost centers")
	}
	dom := cold.Nodes[0]
	if dom.Kind != "field" {
		t.Fatalf("dominant node = %+v; want the field shard kind", dom)
	}
	if dom.Misses != 18 || dom.Hits != 0 {
		t.Errorf("cold field costs: %d misses, %d hits; want 18 cold misses", dom.Misses, dom.Hits)
	}
	if dom.Bytes <= 0 {
		t.Errorf("cold field bytes = %d; want stored shard sizes accounted", dom.Bytes)
	}
	if len(cold.CriticalPath) == 0 {
		t.Fatal("empty critical path")
	}
	if cold.CriticalPath[0].Name != "job.field_sweep" {
		t.Errorf("critical path starts at %q; want the job root", cold.CriticalPath[0].Name)
	}
	tail := cold.CriticalPath[len(cold.CriticalPath)-1]
	if !strings.HasPrefix(tail.Name, "field/") {
		t.Errorf("critical path ends at %q; want a field node", tail.Name)
	}

	warm := run("warm")
	var field *obs.NodeCost
	for i := range warm.Nodes {
		if warm.Nodes[i].Kind == "field" {
			field = &warm.Nodes[i]
			break
		}
	}
	if field == nil {
		t.Fatal("warm profile lost the field kind")
	}
	if field.Hits != 18 || field.Misses != 0 {
		t.Errorf("warm field costs: %d hits, %d misses; want 18 cache hits", field.Hits, field.Misses)
	}
}
