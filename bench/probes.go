package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"vipipe"
	"vipipe/internal/cell"
	"vipipe/internal/mc"
	"vipipe/internal/obs"
	"vipipe/internal/pipeline"
	"vipipe/internal/service"
	"vipipe/internal/sta"
	"vipipe/internal/tmodel"
	"vipipe/internal/variation"
	"vipipe/internal/vi"
	"vipipe/internal/yield"
)

// probeCore names the core profile a workload's probes time: the
// full-size core for field_cold, the small core elsewhere.
type probeCore struct{ small bool }

// config is the core profile with Monte Carlo budgets cut to what the
// probe fixture needs (the netlist, placement and timing do not depend
// on them).
func (pc probeCore) config(seed int64) vipipe.Config {
	cfg := vipipe.DefaultConfig()
	if pc.small {
		cfg = vipipe.TestConfig()
	}
	cfg.Seed = seed
	cfg.MCSamples = 24
	cfg.VISamples = 16
	return cfg
}

// fixture is one core's artifacts plus the operating points the probes
// (and the allocation test) time: chip position B, a nominal scale
// vector and the same vector with a disc of cells slowed by 5%.
type fixture struct {
	cfg   vipipe.Config
	pos   variation.Pos
	tm    *vipipe.Timing
	part  *vi.Partition
	model *tmodel.Model
	kern  *sta.Kernel

	base, ov []float64
	dirty    []int
	disc     tmodel.Disc
}

func newFixture(ctx context.Context, pc probeCore, seed int64) (*fixture, error) {
	cfg := pc.config(seed)
	pos, ok := cfg.Model.Position("B")
	if !ok {
		return nil, fmt.Errorf("variation model has no position B")
	}
	g := vipipe.NewGraph(cfg, pipeline.NewMemStore())
	mid := vipipe.NodeTimingModel(vi.Vertical, pos.Name)
	arts, err := g.Request(ctx, vipipe.NodeAnalyze, vipipe.NodeIslands(vi.Vertical), mid)
	if err != nil {
		return nil, err
	}
	f := &fixture{
		cfg:   cfg,
		pos:   pos,
		tm:    arts[vipipe.NodeAnalyze].(*vipipe.Timing),
		part:  arts[vipipe.NodeIslands(vi.Vertical)].(*vi.Partition),
		model: arts[mid].(*tmodel.Model),
	}
	a := f.tm.STA
	f.kern = sta.NewKernel(a)
	pl, tech := a.PL, &a.NL.Lib.Tech
	wmm, hmm := pl.DieW/1000, pl.DieH/1000
	f.disc = tmodel.Disc{XMM: 0.4 * wmm, YMM: 0.6 * hmm, RMM: 0.3 * wmm, DeltaFrac: 0.05}
	scaler := tech.DelayScaler(tech.VddLow)
	n := a.NL.NumCells()
	f.base = make([]float64, n)
	f.ov = make([]float64, n)
	r2 := f.disc.RMM * f.disc.RMM
	for i := 0; i < n; i++ {
		cx, cy := pl.Center(i)
		lg := cfg.Model.SystematicLgateNM(pos.XMM+cx/1000, pos.YMM+cy/1000)
		f.base[i] = scaler(lg) * f.tm.Derate[i]
		f.ov[i] = f.base[i]
		dx, dy := cx/1000-f.disc.XMM, cy/1000-f.disc.YMM
		if dx*dx+dy*dy <= r2 {
			f.dirty = append(f.dirty, i)
			f.ov[i] = scaler(lg+cfg.Model.LnomNM*f.disc.DeltaFrac) * f.tm.Derate[i]
		}
	}
	return f, nil
}

// kernelAllocs is the heap allocations per Run + Rerun + RunFrame
// round on the fixture's kernel. The kernel's contract is zero; the
// probe and the allocation test share this helper.
func kernelAllocs(f *fixture) float64 {
	frame := &sta.Frame{}
	clock := f.tm.ClockPS
	// The frame's violator list grows to its high-water mark once.
	f.kern.RunFrame(frame, clock, f.ov)
	return testing.AllocsPerRun(20, func() {
		f.kern.Run(clock, f.base)
		f.kern.Rerun(clock, f.ov, f.dirty)
		f.kern.RunFrame(frame, clock, f.base)
	})
}

// shard runs one yield shard of count samples at the fixture position.
func (f *fixture) shard(ctx context.Context, overlay *yield.PosOverlay, count int) (*yield.ShardStat, error) {
	a := f.tm.STA
	return yield.ComputeShard(ctx, yield.ShardInput{
		Kernel:  f.kern,
		PL:      a.PL,
		Model:   &f.cfg.Model,
		Tech:    &a.NL.Lib.Tech,
		Pos:     f.pos,
		Overlay: overlay,
		Key:     "probe",
		Start:   0,
		Count:   count,
		Seed:    f.cfg.Seed,
		Derate:  f.tm.Derate,
		ClockPS: f.tm.ClockPS,
		Axis:    yield.CurveAxis{}.Resolve(f.tm.ClockPS),
	})
}

// perCall times f in batches sized to about 10ms, for about budget
// (at least three batches), and returns the median per-call time.
func perCall(budget time.Duration, f func() error) (time.Duration, error) {
	t0 := obs.Now()
	if err := f(); err != nil {
		return 0, err
	}
	one := obs.Since(t0)
	n := 1
	if one > 0 && one < 10*time.Millisecond {
		n = int(10 * time.Millisecond / one)
	}
	var per []float64
	start := obs.Now()
	for len(per) < 3 || obs.Since(start) < budget {
		t := obs.Now()
		for k := 0; k < n; k++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		per = append(per, float64(obs.Since(t))/float64(n))
	}
	return time.Duration(median(per)), nil
}

// probes holds the probe results by metric name.
type probes map[string]float64

// measure times fn with perCall and records the per-call median under
// name, in the unit its suffix names (_ns, _us, _ms), divided by div
// when each call covers div units of work.
func (p probes) measure(budget time.Duration, name string, div float64, fn func() error) error {
	d, err := perCall(budget, fn)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	unit := time.Microsecond
	switch {
	case strings.HasSuffix(name, "_ns"):
		unit = time.Nanosecond
	case strings.HasSuffix(name, "_ms"):
		unit = time.Millisecond
	}
	p[name] = float64(d) / float64(unit) / div
	return nil
}

func (p probes) into(r *report) {
	for k, v := range p {
		r.metrics[k] = v
	}
}

// runProbes times each layer's public entry points on the workload's
// core from outside: per-call medians, not the traced workload.
func runProbes(ctx context.Context, pc probeCore, o opts) (probes, error) {
	f, err := newFixture(ctx, pc, o.seed)
	if err != nil {
		return nil, err
	}
	p := probes{}
	budget := o.probeBudget
	clock := f.tm.ClockPS
	a := f.tm.STA

	// sta: the kernel's three entry points and the report-building
	// analyzer they shadow. Rerun alternates between the two scale
	// vectors so every call re-propagates the disc's cone.
	frame := &sta.Frame{}
	rep := &sta.Report{}
	flip := false
	steps := []struct {
		name string
		fn   func() error
	}{
		{"sta.kernel_run_us", func() error { f.kern.Run(clock, f.base); return nil }},
		{"sta.kernel_rerun_us", func() error {
			if flip = !flip; flip {
				f.kern.Rerun(clock, f.ov, f.dirty)
			} else {
				f.kern.Rerun(clock, f.base, f.dirty)
			}
			return nil
		}},
		{"sta.kernel_runframe_us", func() error { f.kern.RunFrame(frame, clock, f.base); return nil }},
		{"sta.analyzer_runinto_us", func() error { a.RunInto(rep, clock, f.base); return nil }},
	}
	for _, s := range steps {
		if err := p.measure(budget, s.name, 1, s.fn); err != nil {
			return nil, err
		}
	}
	p["sta.kernel_allocs"] = kernelAllocs(f)

	// yield: a shard's cost is a fixed part (the position's systematic
	// gate-length map, the overlay's dirty set), timed as an empty
	// shard, plus a per-sample part. Graph shard nodes also build a
	// kernel each.
	ov := &yield.PosOverlay{Pos: f.pos.Name, XMM: f.disc.XMM, YMM: f.disc.YMM, RMM: f.disc.RMM, DeltaFrac: f.disc.DeltaFrac}
	shard := func(overlay *yield.PosOverlay, count int) func() error {
		return func() error {
			_, err := f.shard(ctx, overlay, count)
			return err
		}
	}
	const samples = 8
	if err := p.measure(budget, "yield.shard_fixed_us", 1, shard(nil, 0)); err != nil {
		return nil, err
	}
	if err := p.measure(budget, "yield.sample_us", samples, shard(nil, samples)); err != nil {
		return nil, err
	}
	if err := p.measure(budget, "yield.overlay_sample_us", samples, shard(ov, samples)); err != nil {
		return nil, err
	}
	p["yield.sample_us"] -= p["yield.shard_fixed_us"] / samples
	p["yield.overlay_sample_us"] -= p["yield.shard_fixed_us"] / samples
	if err := p.measure(budget, "sta.kernel_build_us", 1, func() error { sta.NewKernel(a); return nil }); err != nil {
		return nil, err
	}
	p["yield.draw_frac"] = 1 - p["sta.kernel_run_us"]/p["yield.sample_us"]
	if err := f.surfaceProbe(ctx, budget, p); err != nil {
		return nil, err
	}

	const mcSamples = 8
	if err := p.measure(budget, "mc.sample_us", mcSamples, func() error {
		_, err := mc.Run(ctx, a, &f.cfg.Model, f.pos, mc.Options{
			Samples: mcSamples, Seed: f.cfg.Seed, ClockPS: clock, Derate: f.tm.Derate, Workers: 1,
		})
		return err
	}); err != nil {
		return nil, err
	}

	if err := f.tmodelProbes(budget, p); err != nil {
		return nil, err
	}
	if err := pipelineProbes(ctx, f, o, p); err != nil {
		return nil, err
	}
	if err := serviceProbes(ctx, o, p); err != nil {
		return nil, err
	}
	return p, nil
}

// surfaceProbe times yield.BuildSurface folding four shards at each of
// 64 positions. The shard stats are copies of one real stat relabelled
// per position: the fold's cost does not depend on their values.
func (f *fixture) surfaceProbe(ctx context.Context, budget time.Duration, p probes) error {
	st, err := f.shard(ctx, nil, 2)
	if err != nil {
		return err
	}
	grid := yield.Grid{NX: 8, NY: 8}
	positions := grid.Positions(f.cfg.Model.ChipMM)
	perPos := make([][]*yield.ShardStat, len(positions))
	for i, pos := range positions {
		for s := 0; s < 4; s++ {
			c := *st
			c.Pos, c.Key = pos.Name, pos.Name
			perPos[i] = append(perPos[i], &c)
		}
	}
	axis := yield.CurveAxis{}.Resolve(f.tm.ClockPS)
	return p.measure(budget, "yield.surface_us", 1, func() error {
		_, err := yield.BuildSurface("probe", f.tm.ClockPS, grid, positions, axis, perPos)
		return err
	})
}

// tmodelProbes times model extraction, the two composed query tiers
// and the exact fallback a composed answer replaces.
func (f *fixture) tmodelProbes(budget time.Duration, p probes) error {
	a := f.tm.STA
	nl, pl := a.NL, a.PL
	n := nl.NumCells()
	in := tmodel.ExtractInput{
		View:     f.kern.View(),
		ClockPS:  f.tm.ClockPS,
		Region:   f.part.Region,
		Islands:  f.part.NumIslands(),
		LgNM:     make([]float64, n),
		Derate:   f.tm.Derate,
		XUM:      make([]float64, n),
		YUM:      make([]float64, n),
		Tech:     nl.Lib.Tech,
		LnomNM:   f.cfg.Model.LnomNM,
		Pos:      f.pos.Name,
		Strategy: vi.Vertical.String(),
	}
	ls := nl.Lib.Cell(cell.LvlShift)
	in.ShifterPS = ls.IntrinsicPS + ls.DrivePSPerFF*ls.InputCapFF
	for i := 0; i < n; i++ {
		in.XUM[i], in.YUM[i] = pl.Center(i)
		in.LgNM[i] = f.cfg.Model.SystematicLgateNM(f.pos.XMM+in.XUM[i]/1000, f.pos.YMM+in.YUM[i]/1000)
	}
	if err := p.measure(budget, "tmodel.extract_ms", 1, func() error {
		_, err := tmodel.Extract(in)
		return err
	}); err != nil {
		return err
	}

	disc := f.disc
	oob := f.disc
	oob.DeltaFrac = 2 * f.model.MaxDeltaFrac
	queries := []struct {
		name  string
		q     tmodel.Query
		exact bool
	}{
		{"tmodel.eval_raise_us", tmodel.Query{Raise: 1, Shifters: true}, false},
		{"tmodel.eval_overlay_us", tmodel.Query{Raise: 1, Overlay: &disc}, false},
		{"tmodel.fallback_us", tmodel.Query{Raise: 1, Overlay: &oob}, true},
	}
	for _, qc := range queries {
		if err := p.measure(budget, qc.name, 1, func() error {
			ans, err := vipipe.EvalWhatIf(f.cfg, f.tm, f.part, f.model, f.pos, qc.q)
			if err == nil && ans.Exact != qc.exact {
				err = fmt.Errorf("answer exact=%v, want %v", ans.Exact, qc.exact)
			}
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// pipelineProbes times a store hit in each tier, disk writes (fsync
// included) and reads, per-node graph scheduling over a graph whose
// every node hits, and building the 8x8 yield graph.
func pipelineProbes(ctx context.Context, f *fixture, o opts, p probes) error {
	budget := o.probeBudget
	compute := func() (any, int64, error) { return 1, 8, nil }
	mem := pipeline.NewMemStore()
	cache := service.NewCache(1 << 20)
	dir, err := os.MkdirTemp(o.work, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	disk, err := pipeline.OpenDiskStore(dir, vipipe.DiskCodecs())
	if err != nil {
		return err
	}
	tiered := pipeline.NewTiered(pipeline.NewMemStore(), disk)
	hits := []struct {
		name  string
		store pipeline.Store
	}{
		{"pipeline.memstore_hit_ns", mem},
		{"pipeline.cache_hit_ns", cache},
		{"pipeline.tiered_hit_ns", tiered},
	}
	for _, h := range hits {
		if _, err := h.store.Do(ctx, "probe/k", compute); err != nil {
			return err
		}
		if err := p.measure(budget, h.name, 1, func() error {
			_, err := h.store.Do(ctx, "probe/k", compute)
			return err
		}); err != nil {
			return err
		}
	}

	st, err := f.shard(ctx, nil, 2)
	if err != nil {
		return err
	}
	var keys []string
	if err := p.measure(budget, "pipeline.disk_put_us", 1, func() error {
		key := fmt.Sprintf("probe/field/r0c0-k/%d", len(keys))
		if !disk.Put(ctx, key, st) {
			return fmt.Errorf("disk put of %s failed", key)
		}
		keys = append(keys, key)
		return nil
	}); err != nil {
		return err
	}
	next := 0
	if err := p.measure(budget, "pipeline.disk_get_us", 1, func() error {
		key := keys[next%len(keys)]
		next++
		if _, _, ok := disk.Get(ctx, key); !ok {
			return fmt.Errorf("disk get of %s missed", key)
		}
		return nil
	}); err != nil {
		return err
	}

	const nodes = 256
	g := pipeline.New("probe", pipeline.NewMemStore())
	ids := make([]string, nodes)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%d", i)
		g.MustAdd(pipeline.Node{ID: ids[i], Compute: func(context.Context, map[string]any) (any, error) { return 1, nil }})
	}
	if _, err := g.Request(ctx, ids...); err != nil {
		return err
	}
	if err := p.measure(budget, "pipeline.request_node_us", nodes, func() error {
		_, err := g.Request(ctx, ids...)
		return err
	}); err != nil {
		return err
	}

	plan := yield.Plan{Grid: yield.Grid{NX: 8, NY: 8}, Samples: 64, Shards: 4, Seed: f.cfg.Seed}
	return p.measure(budget, "pipeline.yield_graph_build_us", 1, func() error {
		_, _, err := vipipe.NewYieldGraph(f.cfg, plan, mem)
		return err
	})
}

// serviceProbes times a fully cached request through the engine, and
// the same request as a job through an in-process HTTP frontend:
// submit, queue, worker, engine, result fetch. Both run on the small
// core whatever the workload, since the service layer's cost does not
// depend on the netlist.
func serviceProbes(ctx context.Context, o opts, p probes) error {
	budget := o.probeBudget
	m := service.NewMetrics()
	eng := service.NewEngine(service.NewCache(64<<20), m)
	req := service.Request{
		Kind: "characterize", Position: "B",
		Config: service.ConfigSpec{Small: true, Seed: o.seed, MCSamples: 24},
	}
	if _, err := eng.Run(ctx, req); err != nil {
		return err
	}
	if err := p.measure(budget, "service.engine_hit_us", 1, func() error {
		_, err := eng.Run(ctx, req)
		return err
	}); err != nil {
		return err
	}

	mgr := service.NewManager(eng, m, 1, 64)
	srv := &http.Server{Handler: service.NewServer(mgr, m)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	base := "http://" + ln.Addr().String()
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 30 * time.Second}
	err = p.measure(budget, "service.job_roundtrip_us", 1, func() error {
		resp, err := client.Post(base+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		var snap service.JobSnapshot
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			return err
		}
		job, ok := mgr.Get(snap.ID)
		if !ok {
			return fmt.Errorf("submitted job %q not found", snap.ID)
		}
		<-job.Done()
		resp, err = client.Get(base + "/jobs/" + snap.ID + "/result")
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("result status %d", resp.StatusCode)
		}
		return err
	})
	shutCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	_ = srv.Shutdown(shutCtx)
	if _, derr := mgr.Drain(shutCtx); derr != nil && err == nil {
		err = derr
	}
	wg.Wait()
	return err
}
