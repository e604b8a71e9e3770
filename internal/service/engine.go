package service

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"time"

	"vipipe"
	"vipipe/internal/drc"
	"vipipe/internal/flowerr"
	"vipipe/internal/mc"
	"vipipe/internal/pipeline"
	"vipipe/internal/power"
	"vipipe/internal/service/wire"
	"vipipe/internal/tmodel"
	"vipipe/internal/variation"
	"vipipe/internal/vexsim"
	"vipipe/internal/vi"
	"vipipe/internal/yield"
)

// Request is one analysis query against the service. Kind selects the
// analysis; the other fields parameterize it. Every request embeds the
// full flow configuration — the engine content-addresses the expensive
// intermediate artifacts by its hash, so requests that share a config
// share one baseline no matter how they interleave.
type Request struct {
	// Kind: "characterize", "islands", "scenario_power",
	// "chipwide_power", "sweep", "field_sweep", "whatif" or "drc".
	Kind string `json:"kind"`
	// Position names a chip position A-D (characterize,
	// scenario_power, chipwide_power, whatif).
	Position string `json:"position,omitempty"`
	// Strategy is "vertical", "horizontal" or "corner" (islands,
	// scenario_power, sweep, whatif).
	Strategy string `json:"strategy,omitempty"`
	// Scenario is the number of islands to raise, 0..3
	// (scenario_power).
	Scenario int `json:"scenario,omitempty"`

	// Grid is the "NXxNY" exposure-field lattice (field_sweep;
	// default "8x8").
	Grid string `json:"grid,omitempty"`
	// Shards cuts each position's Monte Carlo samples into that many
	// independently cached shard artifacts (field_sweep; default 4).
	Shards int `json:"shards,omitempty"`
	// Points sets the yield-curve period-axis resolution
	// (field_sweep; default 33).
	Points int `json:"points,omitempty"`
	// Overlays lists local Lgate disturbances, at most one per grid
	// position (field_sweep).
	Overlays []OverlaySpec `json:"overlays,omitempty"`

	// Queries lists the what-if evaluations of a whatif job, answered
	// in request order against one extracted timing model (at least
	// one required).
	Queries []WhatIfSpec `json:"queries,omitempty"`

	// Client identifies the submitter for per-client admission
	// fairness (also settable via the X-Client header). Anonymous
	// (empty) submissions are not quota-bounded; only the global
	// queue limits them.
	Client string `json:"client,omitempty"`

	Config ConfigSpec `json:"config"`
}

// OverlaySpec is the wire form of a yield.PosOverlay: a disc of extra
// gate length at one field position, the knob a warm re-sweep turns.
type OverlaySpec struct {
	Pos       string  `json:"pos"`
	XMM       float64 `json:"x_mm"`
	YMM       float64 `json:"y_mm"`
	RMM       float64 `json:"r_mm"`
	DeltaFrac float64 `json:"delta_frac"`
}

// WhatIfSpec is one what-if query of a whatif job: raise the first
// Raise islands, optionally disturb gate lengths inside an overlay
// disc (OverlaySpec.Pos is ignored here — the disc is placed by its
// explicit core-local coordinates), optionally fold the stored paths'
// level-shifter penalty in.
type WhatIfSpec struct {
	Raise    int          `json:"raise"`
	Overlay  *OverlaySpec `json:"overlay,omitempty"`
	Shifters bool         `json:"shifters,omitempty"`
}

// ConfigSpec is the wire form of a flow configuration: a base profile
// plus overrides. Zero values mean "profile default", so an empty spec
// is the paper's full-size setup.
type ConfigSpec struct {
	// Small selects the reduced test core profile.
	Small bool  `json:"small,omitempty"`
	Seed  int64 `json:"seed,omitempty"`

	MCSamples  int `json:"mc_samples,omitempty"`
	VISamples  int `json:"vi_samples,omitempty"`
	FIRSamples int `json:"fir_samples,omitempty"`
	FIRTaps    int `json:"fir_taps,omitempty"`
}

// MaxSamples bounds a request's Monte Carlo sample counts (MCSamples,
// VISamples). mc.Run keeps ~100 bytes of columns per sample, so an
// unbounded count lets one request exhaust the daemon's memory; at the
// bound a run holds ~50 MiB. It admits the 400,000-sample jobs that
// keep a worker busy in the backpressure and drain tests.
const MaxSamples = 1 << 19

// Validate rejects sample counts above MaxSamples.
func (s ConfigSpec) Validate() error {
	if s.MCSamples > MaxSamples || s.VISamples > MaxSamples {
		return flowerr.BadInputf("service: config mc_samples %d / vi_samples %d exceed %d",
			s.MCSamples, s.VISamples, MaxSamples)
	}
	return nil
}

// ToConfig resolves the spec against its base profile, building only
// the profile it keeps: each profile builds its variation model.
func (s ConfigSpec) ToConfig() vipipe.Config {
	var cfg vipipe.Config
	if s.Small {
		cfg = vipipe.TestConfig()
	} else {
		cfg = vipipe.DefaultConfig()
	}
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	if s.MCSamples > 0 {
		cfg.MCSamples = s.MCSamples
	}
	if s.VISamples > 0 {
		cfg.VISamples = s.VISamples
	}
	if s.FIRSamples > 0 {
		cfg.FIRSamples = s.FIRSamples
	}
	if s.FIRTaps > 0 {
		cfg.FIRTaps = s.FIRTaps
	}
	return cfg
}

// Engine answers Requests by requesting artifacts from the flow's
// pipeline graph (vipipe.NewGraph) over the service cache, which
// implements pipeline.Store: every intermediate — synthesis,
// placement, timing, per-position characterization, per-strategy
// partition, power reports — is content-addressed by the config hash
// plus node ID and deduplicated across concurrent jobs. It is safe
// for concurrent use: graph artifacts are immutable once built (the
// engine never runs the netlist-mutating InsertShifters step).
type Engine struct {
	cache *Cache
	store pipeline.Store
	disk  *pipeline.DiskStore
	m     *Metrics

	mu sync.Mutex
	// graphs memoizes the per-config node definitions (~36 KB each; the
	// heavy artifacts live in the bounded cache, not here). Every new
	// seed a client sends is a new config, so the memo is cleared when
	// it holds maxGraphs.
	graphs map[string]*pipeline.Graph
}

// maxGraphs bounds Engine.graphs; rebuilding a cleared graph costs
// ~0.1 ms.
const maxGraphs = 64

// EngineOption configures optional engine layers.
type EngineOption func(*Engine)

// WithDiskStore tiers a durable artifact store under the in-memory
// cache: graph reads fall through memory to disk before recomputing,
// and fresh pure-data artifacts (characterizations, power reports,
// the ladder, DRC — per vipipe.DiskCodecs) write through, so they
// survive a daemon restart. The disk tier degrades, never fails: a
// broken store dir only costs warm restarts.
func WithDiskStore(ds *pipeline.DiskStore) EngineOption {
	return func(e *Engine) {
		if ds == nil {
			return
		}
		e.disk = ds
		e.store = pipeline.NewTiered(e.cache, ds)
	}
}

// NewEngine returns an engine over the given cache and metrics
// registry (metrics may be nil).
func NewEngine(cache *Cache, m *Metrics, opts ...EngineOption) *Engine {
	e := &Engine{cache: cache, store: cache, m: m, graphs: make(map[string]*pipeline.Graph)}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Cache exposes the engine's cache (for stats).
func (e *Engine) Cache() *Cache { return e.cache }

// DiskStore exposes the disk tier wired in with WithDiskStore, or nil.
func (e *Engine) DiskStore() *pipeline.DiskStore { return e.disk }

// Degraded reports whether the durable store is currently
// short-circuiting IO (always false without one): the daemon still
// answers every request from memory and compute, but artifacts are
// not persisting and /metrics + job snapshots surface the condition.
func (e *Engine) Degraded() bool { return e.disk != nil && e.disk.Degraded() }

// graph returns the memoized artifact graph for a config.
func (e *Engine) graph(cfg vipipe.Config) *pipeline.Graph {
	hash := cfg.Hash()
	e.mu.Lock()
	defer e.mu.Unlock()
	if g, ok := e.graphs[hash]; ok {
		return g
	}
	if len(e.graphs) >= maxGraphs {
		clear(e.graphs)
	}
	g := vipipe.NewGraph(cfg, e.store, pipeline.WithHook(e.observe))
	e.graphs[hash] = g
	return g
}

// observe is the node hook of every engine graph: a computed node
// feeds the latency histogram "artifact.<node>" of /metrics, a cached
// one the counter "artifact_hits.<node>". Field-sweep nodes aggregate
// under "field_shard" and "field_surface" — per-shard names would grow
// the registry with every distinct plan.
func (e *Engine) observe(id string, _ any, cached bool, d time.Duration) {
	name := id
	switch {
	case strings.HasPrefix(id, "field/surface/"):
		name = "field_surface"
	case strings.HasPrefix(id, "field/"):
		name = "field_shard"
	}
	if cached {
		e.m.Inc("artifact_hits." + name)
	} else {
		e.m.ObserveStep("artifact."+name, d)
	}
}

// kind is one row of the request table: the fields a request kind
// reads, and how it is answered — a single-artifact kind names its
// terminal graph node and wire encoder, a composite kind its run
// function.
type kind struct {
	position, strategy, scenario, queries, plan bool

	node   func(r *resolved) string
	encode func(v any) any

	run func(e *Engine, ctx context.Context, r *resolved) (any, error)
}

// kinds is the request table, keyed by Request.Kind.
var kinds = map[string]kind{
	"characterize": {position: true,
		node:   func(r *resolved) string { return vipipe.NodeMC(r.pos.Name) },
		encode: func(v any) any { return wire.FromMCResult(v.(*mc.Result)) }},
	"islands": {strategy: true,
		node:   func(r *resolved) string { return vipipe.NodeIslands(r.strat) },
		encode: func(v any) any { return wire.FromPartition(v.(*vi.Partition)) }},
	"chipwide_power": {position: true,
		node:   func(r *resolved) string { return vipipe.NodeChipWidePower(r.pos.Name) },
		encode: func(v any) any { return wire.FromPowerReport(v.(*power.Report)) }},
	"scenario_power": {strategy: true, scenario: true, position: true,
		node:   func(r *resolved) string { return vipipe.NodeScenarioPower(r.strat, r.scenario, r.pos.Name) },
		encode: func(v any) any { return wire.FromPowerReport(v.(*power.Report)) }},
	"drc": {
		node:   func(*resolved) string { return vipipe.NodeDRC },
		encode: func(v any) any { return wire.FromDRCReport(v.(*drc.Report)) }},
	"sweep":       {strategy: true, run: (*Engine).sweep},
	"whatif":      {strategy: true, position: true, queries: true, run: (*Engine).whatIf},
	"field_sweep": {plan: true, run: (*Engine).fieldSweep},
}

// resolved is a request parsed and checked once: its table row, its
// flow configuration, and every field its kind reads.
type resolved struct {
	kind     kind
	cfg      vipipe.Config
	pos      variation.Pos
	strat    vi.Strategy
	scenario int
	queries  []tmodel.Query
	plan     yield.Plan
}

// MaxQueries bounds a whatif job's query list. A query outside the
// timing model's domain runs one exact STA (~5 ms on the full-size
// core), so an unbounded list could occupy a worker for hours; the
// bound matches the field sweep's grid and curve-point bounds.
const MaxQueries = 4096

// resolve checks a request and parses each field its kind reads, so
// frontends can reject malformed submissions synchronously with
// ErrBadInput and workers run what was checked.
func resolve(req Request) (*resolved, error) {
	k, ok := kinds[req.Kind]
	if !ok {
		return nil, flowerr.BadInputf("service: unknown request kind %q", req.Kind)
	}
	if err := req.Config.Validate(); err != nil {
		return nil, err
	}
	r := &resolved{kind: k, cfg: req.Config.ToConfig(), scenario: req.Scenario}
	if err := vexsim.ValidateFIR(r.cfg.Core, r.cfg.FIRSamples, r.cfg.FIRTaps); err != nil {
		return nil, err
	}
	if k.strategy {
		strat, err := vi.ParseStrategy(strings.ToLower(req.Strategy))
		if err != nil {
			return nil, err
		}
		r.strat = strat
	}
	if k.scenario && (req.Scenario < 0 || req.Scenario > 3) {
		return nil, flowerr.BadInputf("service: scenario %d out of range 0..3", req.Scenario)
	}
	if k.position {
		pos, ok := r.cfg.Model.Position(req.Position)
		if !ok {
			return nil, flowerr.BadInputf("service: unknown chip position %q (model defines A-D)", req.Position)
		}
		r.pos = pos
	}
	if k.queries {
		qs, err := whatIfQueries(req.Queries)
		if err != nil {
			return nil, err
		}
		r.queries = qs
	}
	if k.plan {
		plan, err := fieldPlan(req, r.cfg)
		if err != nil {
			return nil, err
		}
		r.plan = plan
	}
	return r, nil
}

// whatIfQueries checks a whatif job's query list and converts it to
// timing-model queries.
func whatIfQueries(specs []WhatIfSpec) ([]tmodel.Query, error) {
	if len(specs) == 0 {
		return nil, flowerr.BadInputf("service: whatif needs at least one query")
	}
	if len(specs) > MaxQueries {
		return nil, flowerr.BadInputf("service: whatif has %d queries, more than %d", len(specs), MaxQueries)
	}
	qs := make([]tmodel.Query, len(specs))
	for i, s := range specs {
		if s.Raise < 0 {
			return nil, flowerr.BadInputf("service: whatif query %d: negative raise %d", i, s.Raise)
		}
		qs[i] = tmodel.Query{Raise: s.Raise, Shifters: s.Shifters}
		if ov := s.Overlay; ov != nil {
			disc := yield.PosOverlay{Pos: "whatif query " + strconv.Itoa(i),
				XMM: ov.XMM, YMM: ov.YMM, RMM: ov.RMM, DeltaFrac: ov.DeltaFrac}
			if err := disc.Validate(); err != nil {
				return nil, err
			}
			qs[i].Overlay = &tmodel.Disc{XMM: ov.XMM, YMM: ov.YMM, RMM: ov.RMM, DeltaFrac: ov.DeltaFrac}
		}
	}
	return qs, nil
}

// fieldPlan resolves a field_sweep request into a validated yield
// plan: grid and shard defaults filled, sampling shape taken from the
// flow config so the shard artifacts share the characterizations'
// sample budget and seed.
func fieldPlan(req Request, cfg vipipe.Config) (yield.Plan, error) {
	gs := req.Grid
	if gs == "" {
		gs = "8x8"
	}
	g, err := yield.ParseGrid(gs)
	if err != nil {
		return yield.Plan{}, err
	}
	shards := req.Shards
	if shards <= 0 {
		shards = 4
	}
	plan := yield.Plan{
		Grid:    g,
		Samples: cfg.MCSamples,
		Shards:  shards,
		Seed:    cfg.Seed,
		Axis:    yield.CurveAxis{Points: req.Points},
	}
	for _, ov := range req.Overlays {
		plan.Overlays = append(plan.Overlays, yield.PosOverlay{
			Pos: ov.Pos, XMM: ov.XMM, YMM: ov.YMM, RMM: ov.RMM, DeltaFrac: ov.DeltaFrac,
		})
	}
	if err := plan.Validate(); err != nil {
		return yield.Plan{}, err
	}
	// Resolve once here so a bad overlay position rejects at submit
	// time, not in a worker.
	if _, err := plan.ResolvePositions(&cfg.Model); err != nil {
		return yield.Plan{}, err
	}
	return plan, nil
}

// Run executes one request and returns its wire-typed result:
// wire.MCResult, wire.Partition, wire.PowerReport, wire.Sweep,
// wire.Surface, wire.WhatIf or wire.DRCReport depending on Kind. The
// graph schedules the missing parts of each kind's dependency closure
// concurrently.
func (e *Engine) Run(ctx context.Context, req Request) (any, error) {
	r, err := resolve(req)
	if err != nil {
		return nil, err
	}
	return e.run(ctx, r)
}

// run answers a resolved request from its table row.
func (e *Engine) run(ctx context.Context, r *resolved) (any, error) {
	if r.kind.run != nil {
		return r.kind.run(e, ctx, r)
	}
	v, err := e.graph(r.cfg).RequestOne(ctx, r.kind.node(r))
	if err != nil {
		return nil, err
	}
	return r.kind.encode(v), nil
}

// sweep runs the Fig. 5 query: for each diagonal position, classify
// the scenario from the characterization and compare the VI design
// with that many islands raised against the chip-wide high-Vdd
// baseline. It issues two batched graph requests — characterizations
// plus partition, then all power reports — so independent nodes run
// concurrently.
func (e *Engine) sweep(ctx context.Context, r *resolved) (any, error) {
	g, strat := e.graph(r.cfg), r.strat
	out := wire.Sweep{Strategy: strat.String()}
	positions := r.cfg.Model.DiagonalPositions()

	ids := []string{vipipe.NodeIslands(strat)}
	for _, pos := range positions {
		ids = append(ids, vipipe.NodeMC(pos.Name))
	}
	arts, err := g.Request(ctx, ids...)
	if err != nil {
		return nil, err
	}
	part := arts[vipipe.NodeIslands(strat)].(*vi.Partition)

	// The raised-island count per position: its classified scenario,
	// clamped to the islands the partition actually has.
	scenario := make(map[string]int, len(positions))
	powerIDs := make([]string, 0, 2*len(positions))
	for _, pos := range positions {
		res := arts[vipipe.NodeMC(pos.Name)].(*mc.Result)
		sc, _ := res.Classify(0)
		k := int(sc)
		if k > part.NumIslands() {
			k = part.NumIslands()
		}
		scenario[pos.Name] = k
		powerIDs = append(powerIDs,
			vipipe.NodeScenarioPower(strat, k, pos.Name),
			vipipe.NodeChipWidePower(pos.Name))
	}
	arts, err = g.Request(ctx, powerIDs...)
	if err != nil {
		return nil, err
	}
	for _, pos := range positions {
		k := scenario[pos.Name]
		viRep := arts[vipipe.NodeScenarioPower(strat, k, pos.Name)].(*power.Report)
		baseRep := arts[vipipe.NodeChipWidePower(pos.Name)].(*power.Report)
		entry := wire.SweepEntry{
			Position: pos.Name,
			Scenario: k,
			VI:       wire.FromPowerReport(viRep),
			ChipWide: wire.FromPowerReport(baseRep),
		}
		if t := baseRep.TotalMW(); t > 0 {
			entry.TotalRatio = viRep.TotalMW() / t
		}
		if l := baseRep.LeakMW; l > 0 {
			entry.LeakRatio = viRep.LeakMW / l
		}
		out.Entries = append(out.Entries, entry)
	}
	return out, nil
}

// whatIf serves a batch of what-if queries from the cached compact
// timing model (vipipe.NodeTimingModel): the model extracts once per
// (config, strategy, position) and every subsequent query composes in
// microseconds. Out-of-domain queries fall back to one exact STA run
// each; /metrics splits the two paths as whatif.composed and
// whatif.fallback.
func (e *Engine) whatIf(ctx context.Context, r *resolved) (any, error) {
	id := vipipe.NodeTimingModel(r.strat, r.pos.Name)
	arts, err := e.graph(r.cfg).Request(ctx, id, vipipe.NodeAnalyze, vipipe.NodeIslands(r.strat))
	if err != nil {
		return nil, err
	}
	tm := arts[vipipe.NodeAnalyze].(*vipipe.Timing)
	part := arts[vipipe.NodeIslands(r.strat)].(*vi.Partition)
	m := arts[id].(*tmodel.Model)
	out := wire.WhatIf{
		Strategy: r.strat.String(),
		Position: r.pos.Name,
		ClockPS:  m.ClockPS,
		Islands:  part.NumIslands(),
	}
	for i, q := range r.queries {
		ans, err := vipipe.EvalWhatIf(r.cfg, tm, part, m, r.pos, q)
		if err != nil {
			return nil, flowerr.BadInputf("service: whatif query %d: %v", i, err)
		}
		if ans.Exact {
			e.m.Inc("whatif.fallback")
		} else {
			e.m.Inc("whatif.composed")
		}
		out.Answers = append(out.Answers, wire.FromWhatIfAnswer(q.Raise, q.Shifters, ans))
	}
	return out, nil
}

// fieldSweep runs the yield-surface query. Unlike the other kinds it
// builds a per-request graph: the field/* nodes are keyed by the
// plan's content hashes, not just the config hash. Construction is a
// few closures per shard; the store still deduplicates the artifacts,
// so two requests with the same plan share every shard, and a request
// differing at one position recomputes only that position's shards.
// Its hook adds shard accounting to observe's metrics: computed vs
// cache-hit shard counters, and one shard event per shard for the job
// progress and the live /events stream, carrying the position's
// running median yield over the shards folded so far.
func (e *Engine) fieldSweep(ctx context.Context, r *resolved) (any, error) {
	total := r.plan.NumShards()
	var mu sync.Mutex
	done := 0
	running := make(map[string]yield.ShardStat)
	hook := func(id string, v any, cached bool, d time.Duration) {
		e.observe(id, v, cached, d)
		st, ok := v.(*yield.ShardStat)
		if !ok {
			return // surface node or other kinds
		}
		if cached {
			e.m.Inc("yield.shards_cached")
		} else {
			e.m.Inc("yield.shards_computed")
		}
		mu.Lock()
		done++
		acc, seen := running[st.Key]
		if !seen {
			acc = *st
		} else if merged, err := acc.Merge(*st); err == nil {
			acc = merged
		}
		running[st.Key] = acc
		// Report before unlocking: shards resolve concurrently, and
		// their events must go out in Done order.
		reportShard(ctx, ShardEvent{
			Pos:    st.Pos,
			Shard:  shardIndex(id),
			Cached: cached,
			Done:   done,
			Total:  total,
			Yield:  medianYield(acc),
		})
		mu.Unlock()
	}
	g, surfaceID, err := vipipe.NewYieldGraph(r.cfg, r.plan, e.store, pipeline.WithHook(hook))
	if err != nil {
		return nil, err
	}
	v, err := g.RequestOne(ctx, surfaceID)
	if err != nil {
		return nil, err
	}
	return wire.FromSurface(v.(*yield.Surface)), nil
}

// shardIndex parses the trailing shard number of a field shard node
// ID ("field/<pos>-<key>/<n>"), -1 when there is none.
func shardIndex(id string) int {
	i := strings.LastIndexByte(id, '/')
	if i < 0 {
		return -1
	}
	n, err := strconv.Atoi(id[i+1:])
	if err != nil {
		return -1
	}
	return n
}

// medianYield reports the running median-period yield of a position's
// folded shard stats: the middle point of the yield curve, from the
// overlay-perturbed histogram when the position carries one (that is
// the curve the surface will report).
func medianYield(st yield.ShardStat) float64 {
	h := st.Hist
	if st.HasOverlay {
		h = st.OvHist
	}
	ys := h.Yields()
	if len(ys) == 0 {
		return 0
	}
	return ys[len(ys)/2]
}
