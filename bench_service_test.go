package vipipe_test

import (
	"context"
	"testing"
	"time"

	"vipipe"
	"vipipe/internal/cell"
	"vipipe/internal/obs"
	"vipipe/internal/service"
	"vipipe/internal/sta"
	"vipipe/internal/tmodel"
	"vipipe/internal/variation"
	"vipipe/internal/vi"
)

// BenchmarkServiceScenarioSweep measures the service engine's A-D
// scenario sweep cold (fresh cache each iteration: full synthesize +
// place + analyze + 4x Monte Carlo) against cache-warm (one engine,
// every artifact hits). The gap is the value of the content-addressed
// cache; warm iterations are essentially the power evaluation alone.
//
// This lives in the external test package: internal/service imports
// the root vipipe package, so an in-package benchmark would be an
// import cycle.
func BenchmarkServiceScenarioSweep(b *testing.B) {
	req := service.Request{
		Kind:     "sweep",
		Strategy: "vertical",
		Config: service.ConfigSpec{
			Small: true, Seed: 1,
			MCSamples: 60, VISamples: 24, FIRSamples: 8, FIRTaps: 4,
		},
	}
	ctx := context.Background()

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := service.NewEngine(service.NewCache(64<<20), nil)
			if _, err := eng.Run(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("warm", func(b *testing.B) {
		eng := service.NewEngine(service.NewCache(64<<20), nil)
		if _, err := eng.Run(ctx, req); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st := eng.Cache().Stats()
		b.ReportMetric(st.HitRate(), "cache_hit_rate")
	})
}

// BenchmarkFieldSweep sizes the exposure-field yield engine against
// the four-position characterize baseline it generalizes: a 64x-denser
// 8x8 sweep (field64/cold) must land well under 64x the baseline's
// wall clock — the shard kernel skips the per-stage bookkeeping mc.Run
// carries — and a warm re-sweep after one overlay edit
// (field64/warm_dirty) touches a single position's shards, so it runs
// orders of magnitude under cold. The counters metric reports shards
// actually computed per iteration.
func BenchmarkFieldSweep(b *testing.B) {
	spec := service.ConfigSpec{
		Small: true, Seed: 1,
		MCSamples: 60, VISamples: 24, FIRSamples: 8, FIRTaps: 4,
	}
	ctx := context.Background()

	b.Run("four_pos/cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := service.NewEngine(service.NewCache(64<<20), nil)
			for _, pos := range []string{"A", "B", "C", "D"} {
				req := service.Request{Kind: "characterize", Position: pos, Config: spec}
				if _, err := eng.Run(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	req := service.Request{Kind: "field_sweep", Grid: "8x8", Shards: 4, Points: 17, Config: spec}

	b.Run("field64/cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := service.NewMetrics()
			eng := service.NewEngine(service.NewCache(64<<20), m)
			if _, err := eng.Run(ctx, req); err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(float64(m.Snapshot(nil, nil).Counters["yield.shards_computed"]), "shards/op")
			}
		}
	})

	b.Run("field64/warm_dirty", func(b *testing.B) {
		m := service.NewMetrics()
		eng := service.NewEngine(service.NewCache(256<<20), m)
		if _, err := eng.Run(ctx, req); err != nil {
			b.Fatal(err)
		}
		cold := m.Snapshot(nil, nil).Counters["yield.shards_computed"]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dirty := req
			// A fresh delta each iteration re-keys the position's
			// shards, so every iteration pays the one-position
			// recompute instead of a full cache hit.
			dirty.Overlays = []service.OverlaySpec{{
				Pos: "r3c4", XMM: 5, YMM: 5, RMM: 3,
				DeltaFrac: 0.01 + 0.0005*float64(i),
			}}
			if _, err := eng.Run(ctx, dirty); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		total := m.Snapshot(nil, nil).Counters["yield.shards_computed"]
		b.ReportMetric(float64(total-cold)/float64(b.N), "shards/op")
	})
}

// whatIfFixture materializes the what-if serving baseline once: a
// warmed flow, its vertical partition and the extracted compact model,
// plus everything an explicit re-extraction needs.
type whatIfFixture struct {
	f    *vipipe.Flow
	pos  variation.Pos
	part *vi.Partition
	m    *tmodel.Model
	tm   *vipipe.Timing
	in   tmodel.ExtractInput
}

func newWhatIfFixture(tb testing.TB) *whatIfFixture {
	tb.Helper()
	ctx := context.Background()
	cfg := vipipe.TestConfig()
	cfg.MCSamples = 60
	cfg.VISamples = 24
	cfg.FIRSamples = 8
	cfg.FIRTaps = 4
	f := vipipe.New(cfg)
	pos, err := f.Position("B")
	if err != nil {
		tb.Fatal(err)
	}
	m, err := f.TimingModel(ctx, vi.Vertical, pos)
	if err != nil {
		tb.Fatal(err)
	}
	part, err := f.GenerateIslands(ctx, vi.Vertical)
	if err != nil {
		tb.Fatal(err)
	}
	n := f.NL.NumCells()
	xum := make([]float64, n)
	yum := make([]float64, n)
	for i := 0; i < n; i++ {
		xum[i], yum[i] = f.PL.Center(i)
	}
	ls := f.Lib.Cell(cell.LvlShift)
	return &whatIfFixture{
		f:    f,
		pos:  pos,
		part: part,
		m:    m,
		tm:   &vipipe.Timing{STA: f.STA, ClockPS: f.ClockPS, FmaxMHz: f.FmaxMHz, Derate: f.Derate},
		in: tmodel.ExtractInput{
			View:      sta.NewKernel(f.STA).View(),
			ClockPS:   f.ClockPS,
			Region:    part.Region,
			Islands:   part.NumIslands(),
			LgNM:      f.SystematicLgate(pos),
			Derate:    f.Derate,
			XUM:       xum,
			YUM:       yum,
			Tech:      f.NL.Lib.Tech,
			LnomNM:    cfg.Model.LnomNM,
			ShifterPS: ls.IntrinsicPS + ls.DrivePSPerFF*ls.InputCapFF,
			Pos:       pos.Name,
			Strategy:  vi.Vertical.String(),
		},
	}
}

// whatIfQueries returns the three query classes: the group-sum
// raise/shifter query (the steady-state currency of island search),
// an in-domain overlay query (walks the stored cells), and an
// out-of-domain query that forces the exact-STA fallback.
func (x *whatIfFixture) whatIfQueries() (raise, overlay, fallback tmodel.Query) {
	wmm, hmm := x.f.PL.DieW/1000, x.f.PL.DieH/1000
	raise = tmodel.Query{Raise: 1, Shifters: true}
	overlay = tmodel.Query{Raise: 1, Overlay: &tmodel.Disc{
		XMM: 0.4 * wmm, YMM: 0.6 * hmm, RMM: 0.3 * wmm, DeltaFrac: 0.05}}
	fallback = overlay
	fallback.Overlay = &tmodel.Disc{
		XMM: 0.4 * wmm, YMM: 0.6 * hmm, RMM: 0.3 * wmm,
		DeltaFrac: 2 * x.m.MaxDeltaFrac}
	return raise, overlay, fallback
}

// BenchmarkWhatIf sizes the what-if serving tiers: cold_extract pays
// the one-time model extraction (validation probes included),
// warm_composed is the steady-state microsecond path every query
// takes, and full_sta is the exact fallback a composed answer
// replaces — the ratio between the last two is the point of
// internal/tmodel.
func BenchmarkWhatIf(b *testing.B) {
	x := newWhatIfFixture(b)
	raise, overlay, fallback := x.whatIfQueries()

	b.Run("cold_extract", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tmodel.Extract(x.in); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("warm_composed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := x.m.Eval(raise); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("warm_overlay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := x.m.Eval(overlay); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("full_sta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ans, err := vipipe.EvalWhatIf(x.f.Cfg, x.tm, x.part, x.m, x.pos, fallback)
			if err != nil {
				b.Fatal(err)
			}
			if !ans.Exact {
				b.Fatal("fallback query answered by the model")
			}
		}
	})
}

// TestWhatIfSpeedup is the bench-smoke gate for the composed path: a
// warm raise/shifter what-if query — the group-sum tier island search
// hammers — must answer at least 50x faster than the exact STA
// evaluation it stands in for. (Overlay queries re-price the stored
// cells through the Vdd scaler, so their ceiling is the model’s
// cell-count ratio, not 50x; BenchmarkWhatIf/warm_overlay tracks
// them.) A regression here means the group-sum path grew a hidden
// cell walk.
//
// Each side is timed as the fastest of five interleaved batches, so
// one preemption during the ~1 ms warm batch cannot sink the ratio.
func TestWhatIfSpeedup(t *testing.T) {
	x := newWhatIfFixture(t)
	raise, _, fallback := x.whatIfQueries()

	const batches, warmIters, exactIters = 5, 400, 2
	warm, exact := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for b := 0; b < batches; b++ {
		t0 := obs.Now()
		for i := 0; i < warmIters; i++ {
			if _, err := x.m.Eval(raise); err != nil {
				t.Fatal(err)
			}
		}
		warm = min(warm, obs.Since(t0)/warmIters)

		t1 := obs.Now()
		for i := 0; i < exactIters; i++ {
			ans, err := vipipe.EvalWhatIf(x.f.Cfg, x.tm, x.part, x.m, x.pos, fallback)
			if err != nil {
				t.Fatal(err)
			}
			if !ans.Exact {
				t.Fatal("fallback query answered by the model")
			}
		}
		exact = min(exact, obs.Since(t1)/exactIters)
	}

	if exact < 50*warm {
		t.Fatalf("composed what-if %v not ≥50x faster than full STA %v", warm, exact)
	}
}

// TestFieldSweepWarmDirtySpeedup is the bench-smoke gate for the warm
// path: a re-sweep that dirties one of sixteen positions recomputes
// that position's 4 shards and serves the other 60 from the cache, and
// runs at least 5x faster than the cold sweep (the real ratio is far
// higher — one position's shards against sixteen positions plus the
// baseline build). The warm side is the fastest of three re-sweeps,
// each dirtying another position. A regression here means shard keys
// stopped isolating plan edits and the warm path went cold.
func TestFieldSweepWarmDirtySpeedup(t *testing.T) {
	spec := service.ConfigSpec{
		Small: true, Seed: 1,
		MCSamples: 60, VISamples: 24, FIRSamples: 8, FIRTaps: 4,
	}
	req := service.Request{Kind: "field_sweep", Grid: "4x4", Shards: 4, Points: 9, Config: spec}
	ctx := context.Background()
	m := service.NewMetrics()
	eng := service.NewEngine(service.NewCache(128<<20), m)
	shards := func() (computed, cached int64) {
		c := m.Snapshot(nil, nil).Counters
		return c["yield.shards_computed"], c["yield.shards_cached"]
	}

	t0 := obs.Now()
	if _, err := eng.Run(ctx, req); err != nil {
		t.Fatal(err)
	}
	cold := obs.Since(t0)

	warm := time.Duration(1<<63 - 1)
	for _, pos := range []string{"r1c1", "r2c3", "r3c0"} {
		dirty := req
		dirty.Overlays = []service.OverlaySpec{{Pos: pos, XMM: 2, YMM: 2, RMM: 3, DeltaFrac: 0.03}}
		computed, cached := shards()
		t1 := obs.Now()
		if _, err := eng.Run(ctx, dirty); err != nil {
			t.Fatal(err)
		}
		warm = min(warm, obs.Since(t1))
		c, h := shards()
		if c-computed != 4 || h-cached != 60 {
			t.Fatalf("re-sweep dirtying %s computed %d shards and hit %d, want 4 and 60", pos, c-computed, h-cached)
		}
	}

	if cold < 5*warm {
		t.Fatalf("warm-dirty re-sweep %v not ≥5x faster than cold %v", warm, cold)
	}
}
