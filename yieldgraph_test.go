package vipipe

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"vipipe/internal/flowerr"
	"vipipe/internal/mc"
	"vipipe/internal/obs"
	"vipipe/internal/pipeline"
	"vipipe/internal/yield"
)

// TestYieldSurfaceMatchesMCCharacterization pins the equivalence the
// shard engine is built on: a field sweep over the ladder positions
// A-D reproduces the mc.Run characterization's yield curves bit for
// bit — same per-sample RNG streams, same STA, same axis math — all
// the way through the JSON wire encoding. A multi-shard sweep must
// then match the single-shard one, because sample streams derive from
// the global sample index, not the shard.
func TestYieldSurfaceMatchesMCCharacterization(t *testing.T) {
	ctx := context.Background()
	cfg := TestConfig()
	store := pipeline.NewMemStore()

	// Reference: the flow graph's own Monte Carlo characterizations.
	g := NewGraph(cfg, store)
	positions := cfg.Model.DiagonalPositions()
	ids := []string{NodeAnalyze}
	for _, pos := range positions {
		ids = append(ids, NodeMC(pos.Name))
	}
	arts, err := g.Request(ctx, ids...)
	if err != nil {
		t.Fatal(err)
	}
	tm := arts[NodeAnalyze].(*Timing)
	axis := yield.CurveAxis{LoPS: 0.92 * tm.ClockPS, HiPS: 1.12 * tm.ClockPS, Points: 17}

	run := func(shards int) *yield.Surface {
		plan := yield.Plan{
			Positions: positions,
			Samples:   cfg.MCSamples,
			Shards:    shards,
			Seed:      cfg.Seed,
			Axis:      axis,
		}
		surf, err := RunYield(ctx, cfg, plan, store)
		if err != nil {
			t.Fatalf("RunYield(%d shards): %v", shards, err)
		}
		return surf
	}
	surf := run(1)

	if len(surf.Positions) != len(positions) {
		t.Fatalf("surface has %d positions; want %d", len(surf.Positions), len(positions))
	}
	for i, pos := range positions {
		res := arts[NodeMC(pos.Name)].(*mc.Result)
		periods, yields := res.YieldCurve(axis.LoPS, axis.HiPS, axis.Points)
		sp := surf.Positions[i]
		if sp.Name != pos.Name || sp.Samples != int64(res.Samples) {
			t.Fatalf("position %d = %s/%d samples; want %s/%d", i, sp.Name, sp.Samples, pos.Name, res.Samples)
		}
		// Bit-identity through the wire: marshalled float slices must
		// be byte-equal, not merely close.
		jsonEq(t, pos.Name+" periods", surf.PeriodsPS, periods)
		jsonEq(t, pos.Name+" yields", sp.Yields, yields)
	}

	// Re-sharding changes artifact boundaries, never statistics.
	surf4 := run(4)
	for i := range surf.Positions {
		a, b := surf.Positions[i], surf4.Positions[i]
		jsonEq(t, a.Name+" sharded yields", a.Yields, b.Yields)
		if a.MeanPS != b.MeanPS || a.StdPS != b.StdPS || a.MinPS != b.MinPS || a.MaxPS != b.MaxPS {
			t.Fatalf("%s: moments drift across sharding: %+v vs %+v", a.Name, a, b)
		}
		if b.Shards != 4 {
			t.Fatalf("%s: shards = %d; want 4", b.Name, b.Shards)
		}
	}
}

// TestYieldShardsPersistToDisk pins the durability half of the warm
// path: every field/* artifact — shards and surface — must survive a
// trip through the DiskStore. This is the regression guard for shard
// IDs drifting outside the store's safe character set ([a-zA-Z0-9._-]
// per path segment): DiskStore.Put is best-effort, so an illegal key
// doesn't fail the sweep, it just silently turns every re-sweep cold.
func TestYieldShardsPersistToDisk(t *testing.T) {
	ctx := context.Background()
	cfg := TestConfig()
	cfg.MCSamples = 40
	plan := yield.Plan{
		Grid:    yield.Grid{NX: 2, NY: 1},
		Samples: cfg.MCSamples,
		Shards:  2,
		Seed:    cfg.Seed,
		Axis:    yield.CurveAxis{Points: 5},
	}

	dir := t.TempDir()
	disk, err := pipeline.OpenDiskStore(dir, DiskCodecs())
	if err != nil {
		t.Fatal(err)
	}
	store := pipeline.NewTiered(pipeline.NewMemStore(), disk)
	if _, err := RunYield(ctx, cfg, plan, store); err != nil {
		t.Fatal(err)
	}

	// Every shard plus the surface must have landed on disk. A fresh
	// memory tier over the same disk store proves it by reading each
	// node back without recomputing.
	g, surfaceID, err := NewYieldGraph(cfg, plan, pipeline.NewTiered(pipeline.NewMemStore(), disk))
	if err != nil {
		t.Fatal(err)
	}
	positions, err := plan.ResolvePositions(&cfg.Model)
	if err != nil {
		t.Fatal(err)
	}
	var fieldIDs []string
	for _, pos := range positions {
		key := plan.PosKey(pos)
		for s := 0; s < plan.Shards; s++ {
			fieldIDs = append(fieldIDs, NodeFieldShard(pos.Name, key, s))
		}
	}
	fieldIDs = append(fieldIDs, surfaceID)
	for _, id := range fieldIDs {
		if _, _, ok := disk.Get(ctx, g.Key(id)); !ok {
			t.Errorf("artifact %s missing from disk store", id)
		}
	}
}

// TestYieldGraphHoldsOnlyItsSweep pins what a field sweep's graph
// holds: the baseline nodes and its field/* nodes, none of the flow
// nodes a sweep never reads. Requesting a Monte Carlo characterization
// from it fails as bad input, before anything computes.
func TestYieldGraphHoldsOnlyItsSweep(t *testing.T) {
	cfg := TestConfig()
	plan := yield.Plan{
		Grid:    yield.Grid{NX: 1, NY: 1},
		Samples: cfg.MCSamples,
		Shards:  1,
		Seed:    cfg.Seed,
		Axis:    yield.CurveAxis{Points: 5},
	}
	g, _, err := NewYieldGraph(cfg, plan, pipeline.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Request(context.Background(), NodeMC("A")); !errors.Is(err, flowerr.ErrBadInput) {
		t.Fatalf("requesting %s from a yield graph: err = %v, want bad input", NodeMC("A"), err)
	}
}

func jsonEq(t *testing.T, what string, got, want any) {
	t.Helper()
	gb, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, wb) {
		t.Fatalf("%s: %s != %s", what, gb, wb)
	}
}

// TestYieldResweepRecomputesOnlyDirtyShards pins the warm-path
// contract: after a cold sweep, adding an overlay at one position
// re-keys (and recomputes) exactly that position's shards, while every
// other field/* node resolves from the store. The proof reads the
// pipeline's own node spans — cache=hit/miss attributes on a tracer.
func TestYieldResweepRecomputesOnlyDirtyShards(t *testing.T) {
	cfg := TestConfig()
	cfg.MCSamples = 40
	store := pipeline.NewMemStore()
	plan := yield.Plan{
		Grid:    yield.Grid{NX: 2, NY: 2},
		Samples: cfg.MCSamples,
		Shards:  2,
		Seed:    cfg.Seed,
		Axis:    yield.CurveAxis{Points: 5},
	}

	sweep := func(p yield.Plan) map[string]string {
		tr := obs.NewTracer("test", "yield-resweep")
		ctx := obs.WithTracer(context.Background(), tr)
		if _, err := RunYield(ctx, cfg, p, store); err != nil {
			t.Fatal(err)
		}
		cache := make(map[string]string)
		for _, s := range tr.Finish().Spans {
			if !strings.HasPrefix(s.Name, "field/") || strings.HasPrefix(s.Name, "field/surface/") {
				continue
			}
			for _, a := range s.Attrs {
				if a.Key == "cache" {
					cache[s.Name] = a.Value
				}
			}
		}
		return cache
	}

	cold := sweep(plan)
	if len(cold) != plan.NumShards() {
		t.Fatalf("cold sweep traced %d shard spans; want %d", len(cold), plan.NumShards())
	}
	for id, c := range cold {
		if c != "miss" {
			t.Fatalf("cold shard %s: cache=%s; want miss", id, c)
		}
	}

	dirty := plan
	dirty.Overlays = []yield.PosOverlay{{Pos: "r0c1", XMM: 2, YMM: 2, RMM: 3, DeltaFrac: 0.04}}
	warm := sweep(dirty)
	if len(warm) != plan.NumShards() {
		t.Fatalf("warm sweep traced %d shard spans; want %d", len(warm), plan.NumShards())
	}
	misses := 0
	for id, c := range warm {
		onDirtyPos := strings.HasPrefix(id, "field/r0c1-")
		if onDirtyPos && c != "miss" {
			t.Fatalf("dirty shard %s: cache=%s; want miss", id, c)
		}
		if !onDirtyPos && c != "hit" {
			t.Fatalf("clean shard %s: cache=%s; want hit", id, c)
		}
		if c == "miss" {
			misses++
		}
	}
	if misses != plan.Shards {
		t.Fatalf("warm sweep recomputed %d shards; want exactly the dirty position's %d", misses, plan.Shards)
	}
}
