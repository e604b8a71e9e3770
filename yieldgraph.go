package vipipe

import (
	"context"
	"strconv"

	"vipipe/internal/cell"
	"vipipe/internal/pipeline"
	"vipipe/internal/sta"
	"vipipe/internal/yield"
)

// NodeFieldShard returns the ID of one shard of a position's
// field-sweep Monte Carlo (artifact *yield.ShardStat). The ID embeds
// the position's content key (yield.Plan.PosKey), so a plan tweak —
// say, an overlay moved at one position — re-keys exactly the shards
// it invalidates while every untouched position keeps hitting the
// store. Every character must stay inside the DiskStore's safe set
// [a-zA-Z0-9._-], or shards silently stop persisting (Put is
// best-effort); TestYieldShardsPersistToDisk pins this.
func NodeFieldShard(pos, key string, shard int) string {
	return "field/" + pos + "-" + key + "/" + strconv.Itoa(shard)
}

// NodeFieldSurface returns the ID of a plan's reduce node (artifact
// *yield.Surface).
func NodeFieldSurface(planHash string) string { return "field/surface/" + planHash }

// NewYieldGraph builds the graph of a field sweep: the baseline nodes
// synth, place and analyze, one shard node per (position, shard) over
// the plan, all hanging off NodeAnalyze, and a surface node folding
// every shard in row-major position order. It holds no other flow
// node. The baseline nodes are keyed by cfg.Hash() exactly as NewGraph
// keys them, so sweeps share their artifacts with every other flow
// over the store; only the field/* nodes carry plan-derived keys. It
// returns the graph and the surface node's ID.
func NewYieldGraph(cfg Config, plan yield.Plan, store pipeline.Store, opts ...pipeline.Option) (*pipeline.Graph, string, error) {
	if err := plan.Validate(); err != nil {
		return nil, "", err
	}
	positions, err := plan.ResolvePositions(&cfg.Model)
	if err != nil {
		return nil, "", err
	}
	plan.Positions = positions

	g := newBaselineGraph(cfg, cell.Default65nm(), store, opts...)

	shardIDs := make([]string, 0, len(positions)*plan.Shards)
	for _, pos := range positions {
		pos := pos
		key := plan.PosKey(pos)
		overlay := plan.OverlayFor(pos.Name)
		for s := 0; s < plan.Shards; s++ {
			s := s
			id := NodeFieldShard(pos.Name, key, s)
			shardIDs = append(shardIDs, id)
			g.MustAdd(pipeline.Node{
				ID:   id,
				Deps: []string{NodeAnalyze},
				Compute: func(ctx context.Context, deps map[string]any) (any, error) {
					tm := deps[NodeAnalyze].(*Timing)
					start, count := yield.ShardRange(plan.Samples, plan.Shards, s)
					return yield.ComputeShard(ctx, yield.ShardInput{
						Kernel:  sta.NewKernel(tm.STA),
						PL:      tm.STA.PL,
						Model:   &cfg.Model,
						Tech:    &tm.STA.NL.Lib.Tech,
						Pos:     pos,
						Overlay: overlay,
						Key:     key,
						Shard:   s,
						Start:   start,
						Count:   count,
						Seed:    plan.Seed,
						Derate:  tm.Derate,
						ClockPS: tm.ClockPS,
						Axis:    plan.Axis.Resolve(tm.ClockPS),
					})
				},
				Size: func(v any) int64 {
					st := v.(*yield.ShardStat)
					return int64(len(st.Hist.Bins)+len(st.OvHist.Bins))*8 + 512
				},
			})
		}
	}

	planHash := plan.Hash()
	surfaceID := NodeFieldSurface(planHash)
	g.MustAdd(pipeline.Node{
		ID:   surfaceID,
		Deps: append(shardIDs[:len(shardIDs):len(shardIDs)], NodeAnalyze),
		Compute: func(ctx context.Context, deps map[string]any) (any, error) {
			if err := ctxErr(ctx, surfaceID); err != nil {
				return nil, err
			}
			tm := deps[NodeAnalyze].(*Timing)
			// Read the dep map through shardIDs, which lists the shards
			// in the plan's row-major position order, never map order.
			perPos := make([][]*yield.ShardStat, len(positions))
			for pi := range positions {
				group := make([]*yield.ShardStat, plan.Shards)
				for s, id := range shardIDs[pi*plan.Shards : (pi+1)*plan.Shards] {
					group[s] = deps[id].(*yield.ShardStat)
				}
				perPos[pi] = group
			}
			return yield.BuildSurface(planHash, tm.ClockPS, plan.Grid, positions,
				plan.Axis.Resolve(tm.ClockPS), perPos)
		},
		Size: func(v any) int64 {
			s := v.(*yield.Surface)
			return int64(len(s.Positions))*int64(len(s.PeriodsPS))*16 + 4096
		},
	})
	return g, surfaceID, nil
}

// RunYield executes a field sweep to completion and returns its
// surface: the one-call entry point shared by cmd/viyield and tests.
// Shards schedule concurrently under the graph's worker pool and cache
// individually in the store, so a warm re-run after a plan tweak
// recomputes only the re-keyed shards.
func RunYield(ctx context.Context, cfg Config, plan yield.Plan, store pipeline.Store, opts ...pipeline.Option) (*yield.Surface, error) {
	g, surfaceID, err := NewYieldGraph(cfg, plan, store, opts...)
	if err != nil {
		return nil, err
	}
	v, err := g.RequestOne(ctx, surfaceID)
	if err != nil {
		return nil, err
	}
	return v.(*yield.Surface), nil
}
