package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"vipipe"
	"vipipe/internal/pipeline"
	"vipipe/internal/place"
	"vipipe/internal/service"
	"vipipe/internal/service/wire"
	"vipipe/internal/sta"
	"vipipe/internal/stats"
	"vipipe/internal/yield"
)

// fieldSweep is the engine-level field_sweep workload behind both
// field_cold and field_edit: one service.Engine, one client, each op a
// field_sweep request built from the seed and the op index.
type fieldSweep struct {
	spec service.ConfigSpec
	// warm is the request set-up runs to warm the engine; req builds
	// op i's request.
	warm service.Request
	req  func(i int) service.Request
	// checkOp verifies op i's decoded surface.
	checkOp func(i int, s *wire.Surface) error
	small   bool
	// cacheBytes bounds the engine's artifact cache.
	cacheBytes int64

	m   *service.Metrics
	eng *service.Engine
	// base is the warm request's surface (field_edit's reference for
	// every op), re-encoded per position.
	base [][]byte
}

func (w *fieldSweep) setup(ctx context.Context) error {
	w.m = service.NewMetrics()
	w.eng = service.NewEngine(service.NewCache(w.cacheBytes), w.m)
	v, err := w.eng.Run(ctx, w.warm)
	if err != nil {
		return err
	}
	if s, ok := v.(wire.Surface); ok {
		w.base = w.base[:0]
		for _, p := range s.Positions {
			b, err := json.Marshal(p)
			if err != nil {
				return err
			}
			w.base = append(w.base, b)
		}
	}
	return nil
}

func (w *fieldSweep) op(ctx context.Context, i int) ([]byte, error) {
	v, err := w.eng.Run(ctx, w.req(i))
	if err != nil {
		return nil, err
	}
	return encodeWire(v)
}

func (w *fieldSweep) check(i int, res []byte) error {
	var s wire.Surface
	if err := json.Unmarshal(res, &s); err != nil {
		return err
	}
	req := w.req(i)
	g, err := yield.ParseGrid(req.Grid)
	if err != nil {
		return err
	}
	if len(s.Positions) != g.NumPositions() {
		return fmt.Errorf("surface has %d positions, want %d", len(s.Positions), g.NumPositions())
	}
	for _, p := range s.Positions {
		if p.Samples != int64(req.Config.MCSamples) || p.Shards != req.Shards {
			return fmt.Errorf("position %s folded %d samples in %d shards, want %d in %d",
				p.Position, p.Samples, p.Shards, req.Config.MCSamples, req.Shards)
		}
		if err := monotoneYields(p.Yields); err != nil {
			return fmt.Errorf("position %s: %w", p.Position, err)
		}
	}
	return w.checkOp(i, &s)
}

// monotoneYields checks a yield curve: probabilities that never fall
// as the clock period grows.
func monotoneYields(ys []float64) error {
	for k, y := range ys {
		if y < 0 || y > 1 || k > 0 && y < ys[k-1] {
			return fmt.Errorf("yield curve not a nondecreasing probability at point %d", k)
		}
	}
	return nil
}

func (w *fieldSweep) verify(ctx context.Context, res0 []byte) error {
	ref, err := referenceSurface(ctx, w.req(0))
	if err != nil {
		return err
	}
	if !bytes.Equal(ref, res0) {
		return fmt.Errorf("engine surface differs from the direct ComputeShard/BuildSurface recomputation")
	}
	return nil
}

func (w *fieldSweep) shards() (computed, cached int64) {
	c := w.m.Snapshot(nil, nil).Counters
	return c["yield.shards_computed"], c["yield.shards_cached"]
}

func (w *fieldSweep) core() probeCore { return probeCore{small: w.small} }

// newFieldCold is the cold full-core sweep: every op asks for a new
// yield-curve resolution, which re-keys every shard, so each op
// recomputes all eight shards (2x2 positions, 32 samples per shard)
// against the warm synthesis, placement and timing baseline.
func newFieldCold(seed int64) *fieldSweep {
	spec := service.ConfigSpec{Seed: seed, MCSamples: 64}
	off := stats.DeriveStream(seed, "bench/field_cold").Intn(64)
	w := &fieldSweep{
		spec:       spec,
		cacheBytes: 256 << 20,
		warm:       service.Request{Kind: "drc", Config: spec},
		req: func(i int) service.Request {
			return service.Request{Kind: "field_sweep", Grid: "2x2", Shards: 2, Points: 9 + off + i, Config: spec}
		},
	}
	w.checkOp = func(i int, s *wire.Surface) error {
		if want := w.req(i).Points; len(s.PeriodsPS) != want {
			return fmt.Errorf("surface has %d periods, want %d", len(s.PeriodsPS), want)
		}
		return nil
	}
	return w
}

// newFieldEdit is the interactive re-sweep on the small core: a warm
// 8x8 surface at 16 samples a position, and each op adds one new
// overlay disc at one position, so four shards of four samples
// recompute and 252 come from the cache. The small sample count keeps
// the recompute from drowning the store, graph and wire costs this
// workload exists to expose.
func newFieldEdit(ctx context.Context, seed int64) (*fieldSweep, error) {
	spec := service.ConfigSpec{Small: true, Seed: seed, MCSamples: 16}
	pl, err := placement(ctx, spec)
	if err != nil {
		return nil, err
	}
	grid := yield.Grid{NX: 8, NY: 8}
	wmm, hmm := pl.DieW/1000, pl.DieH/1000
	warm := service.Request{Kind: "field_sweep", Grid: grid.String(), Shards: 4, Config: spec}
	// The cache holds the warm surface with room for about a hundred
	// ops' overlay shards and surfaces; older ones cycle out of the LRU,
	// so memory reaches its steady state early in every run instead of
	// growing with the op count.
	w := &fieldSweep{spec: spec, warm: warm, small: true, cacheBytes: 6 << 20}
	w.req = func(i int) service.Request {
		rng := stats.DeriveStream(seed, fmt.Sprintf("bench/field_edit/%d", i))
		r := warm
		r.Overlays = []service.OverlaySpec{{
			Pos:       fmt.Sprintf("r%dc%d", rng.Intn(grid.NY), rng.Intn(grid.NX)),
			XMM:       wmm * rng.Float64(),
			YMM:       hmm * rng.Float64(),
			RMM:       wmm * (0.1 + 0.3*rng.Float64()),
			DeltaFrac: 0.01 + 0.07*rng.Float64(),
		}}
		return r
	}
	w.checkOp = func(i int, s *wire.Surface) error {
		// Only the overlaid position may differ from the warm surface,
		// and there only in its key and overlay statistics.
		ov := w.req(i).Overlays[0].Pos
		for k, p := range s.Positions {
			if p.Position == ov {
				if !p.HasOverlay {
					return fmt.Errorf("position %s lacks its overlay statistics", ov)
				}
				p.Key, p.HasOverlay = "", false
				p.OvMeanPS, p.OvStdPS, p.OvMinPS, p.OvMaxPS, p.OvYields = 0, 0, 0, 0, nil
				var b wire.YieldPoint
				if err := json.Unmarshal(w.base[k], &b); err != nil {
					return err
				}
				b.Key = ""
				p0, _ := json.Marshal(b)
				p1, _ := json.Marshal(p)
				if !bytes.Equal(p0, p1) {
					return fmt.Errorf("position %s base statistics moved under an overlay", ov)
				}
				continue
			}
			b, err := json.Marshal(p)
			if err != nil {
				return err
			}
			if !bytes.Equal(b, w.base[k]) {
				return fmt.Errorf("untouched position %s differs from the warm surface", p.Position)
			}
		}
		return nil
	}
	return w, nil
}

// placement builds the placed core of a config spec; field_edit draws
// its overlay discs inside the die.
func placement(ctx context.Context, spec service.ConfigSpec) (*place.Placement, error) {
	v, err := vipipe.NewGraph(spec.ToConfig(), pipeline.NewMemStore()).RequestOne(ctx, vipipe.NodePlace)
	if err != nil {
		return nil, err
	}
	return v.(*place.Placement), nil
}

// referenceSurface recomputes a field_sweep request without the
// engine, its cache or the yield graph: every shard straight through
// yield.ComputeShard on two workers, folded by yield.BuildSurface, in
// the engine's wire encoding.
func referenceSurface(ctx context.Context, req service.Request) ([]byte, error) {
	cfg := req.Config.ToConfig()
	v, err := vipipe.NewGraph(cfg, pipeline.NewMemStore()).RequestOne(ctx, vipipe.NodeAnalyze)
	if err != nil {
		return nil, err
	}
	tm := v.(*vipipe.Timing)
	g, err := yield.ParseGrid(req.Grid)
	if err != nil {
		return nil, err
	}
	plan := yield.Plan{
		Grid: g, Samples: cfg.MCSamples, Shards: req.Shards, Seed: cfg.Seed,
		Axis: yield.CurveAxis{Points: req.Points},
	}
	for _, ov := range req.Overlays {
		plan.Overlays = append(plan.Overlays, yield.PosOverlay{Pos: ov.Pos, XMM: ov.XMM, YMM: ov.YMM, RMM: ov.RMM, DeltaFrac: ov.DeltaFrac})
	}
	positions, err := plan.ResolvePositions(&cfg.Model)
	if err != nil {
		return nil, err
	}
	plan.Positions = positions
	axis := plan.Axis.Resolve(tm.ClockPS)

	perPos := make([][]*yield.ShardStat, len(positions))
	errs := make([]error, len(positions))
	for pi := range perPos {
		perPos[pi] = make([]*yield.ShardStat, plan.Shards)
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			kern := sta.NewKernel(tm.STA)
			for pi := range work {
				pos := positions[pi]
				for s := 0; s < plan.Shards; s++ {
					start, count := yield.ShardRange(plan.Samples, plan.Shards, s)
					st, err := yield.ComputeShard(ctx, yield.ShardInput{
						Kernel: kern, PL: tm.STA.PL, Model: &cfg.Model, Tech: &tm.STA.NL.Lib.Tech,
						Pos: pos, Overlay: plan.OverlayFor(pos.Name), Key: plan.PosKey(pos),
						Shard: s, Start: start, Count: count, Seed: plan.Seed,
						Derate: tm.Derate, ClockPS: tm.ClockPS, Axis: axis,
					})
					perPos[pi][s], errs[pi] = st, err
					if err != nil {
						break
					}
				}
			}
		}()
	}
	for pi := range positions {
		work <- pi
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	surf, err := yield.BuildSurface(plan.Hash(), tm.ClockPS, plan.Grid, positions, axis, perPos)
	if err != nil {
		return nil, err
	}
	return encodeWire(wire.FromSurface(surf))
}

// encodeWire renders a result exactly as vipiped serves it.
func encodeWire(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := wire.Encode(&buf, v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
