// Package vipipe is a Go reproduction of "Process Variation Tolerant
// Pipeline Design Through a Placement-Aware Multiple Voltage Island
// Design Style" (Bonesi, Bertozzi, Benini, Macii — DATE 2008).
//
// It implements the paper's full methodology on top of from-scratch
// substrates: a synthetic dual-Vdd 65nm standard-cell library, a
// VEX-like 4-stage VLIW core emitted as a mapped gate-level netlist, a
// min-cut global placer, static and statistical (Monte Carlo) timing
// analysis with the paper's Lgate variation model, a gate-level
// switching-activity simulator driving a PrimePower-style power model,
// Razor-style violation-scenario detection, and the contribution
// itself: placement-aware nested voltage islands with level-shifter
// insertion (see DESIGN.md for the system inventory and EXPERIMENTS.md
// for the reproduced tables and figures).
//
// The methodology of the paper's Fig. 1 is an artifact graph (see
// internal/pipeline and NewGraph): every step is a node keyed by the
// configuration hash, and requesting an artifact computes its
// dependency closure with independent nodes — the four chip-position
// characterizations, the per-strategy island generations — scheduled
// concurrently. The Flow type is the convenient facade over a private
// graph: its step methods request the matching artifacts and mirror
// them into exported fields, so prerequisites resolve automatically
// instead of failing. Long runs stay cancellable and deadline-bounded
// (errors match flowerr.ErrCancelled), and worker panics inside the
// Monte Carlo engine degrade to skipped samples up to
// Config.PanicTolerance:
//
//	ctx := context.Background()
//	flow := vipipe.New(vipipe.DefaultConfig())
//	flow.Run(ctx)                 // synthesize → place → analyze → characterize
//	part, _ := flow.GenerateIslands(ctx, vi.Vertical)  // island generation
//	flow.InsertShifters(ctx, part) // level shifters + incremental placement
//	flow.SimulateWorkload(ctx)     // FIR benchmark switching activity
//	pos, _ := flow.Position("B")
//	rep, _ := flow.ScenarioPower(part, 2, pos)
package vipipe

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"vipipe/internal/cell"
	"vipipe/internal/drc"
	"vipipe/internal/flowerr"
	"vipipe/internal/mc"
	"vipipe/internal/netlist"
	"vipipe/internal/obs"
	"vipipe/internal/pipeline"
	"vipipe/internal/place"
	"vipipe/internal/power"
	"vipipe/internal/razor"
	"vipipe/internal/sta"
	"vipipe/internal/tmodel"
	"vipipe/internal/variation"
	"vipipe/internal/vex"
	"vipipe/internal/vexsim"
	"vipipe/internal/vi"
)

// Config parameterizes the whole flow.
type Config struct {
	Core  vex.Config
	Place place.Options
	Model variation.Model

	// Recovery emulates post-synthesis power optimization (see
	// internal/sta): per-stage wall targets and the per-cell derate
	// cap.
	Recovery   sta.RecoveryTargets
	MaxDerate  float64
	ClockGuard float64 // clock = nominal critical path * (1 + guard)

	// Monte Carlo characterization.
	MCSamples int
	Seed      int64

	// PanicTolerance is the number of Monte Carlo samples per position
	// that may be lost to recovered worker panics before
	// Characterize fails (see mc.Options.PanicTolerance). Zero
	// tolerates none.
	PanicTolerance int

	// FIR workload (paper: power measured on a FIR benchmark).
	FIRSamples int
	FIRTaps    int

	// Voltage-island generation.
	VISamples    int
	SensorBudget int
}

// DefaultConfig reproduces the paper's setup on the full-size core.
func DefaultConfig() Config {
	return Config{
		Core:         vex.DefaultConfig(),
		Place:        place.DefaultOptions(),
		Model:        variation.Default(),
		Recovery:     sta.DefaultRecoveryTargets(),
		MaxDerate:    12,
		ClockGuard:   0.001,
		MCSamples:    300,
		Seed:         1,
		FIRSamples:   48,
		FIRTaps:      8,
		VISamples:    60,
		SensorBudget: razor.DefaultBudget,
	}
}

// Hash returns a stable content hash of the configuration, suitable
// for keying caches of flow artifacts: two configs with the same hash
// produce bit-identical netlists, placements and characterizations
// (the flow is deterministic for a given Config, see DESIGN.md §6).
// The hash covers every exported field via deterministic JSON
// (encoding/json sorts map keys). It is the graph prefix of every
// pipeline node key ("<hash>/<node>").
func (c Config) Hash() string {
	b, err := json.Marshal(c)
	if err != nil {
		// Config is a tree of plain exported value fields; Marshal
		// cannot fail on it short of a programming error.
		panic(fmt.Sprintf("vipipe: config hash: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// TestConfig is DefaultConfig on the reduced core with lighter Monte
// Carlo settings, for fast tests and examples.
func TestConfig() Config {
	cfg := DefaultConfig()
	cfg.Core = vex.SmallConfig()
	cfg.MCSamples = 120
	cfg.FIRSamples = 12
	cfg.FIRTaps = 4
	cfg.VISamples = 40
	return cfg
}

// Flow carries the state of one end-to-end run. It is a facade over a
// private artifact graph (NewGraph over an unshared in-memory store):
// each step method requests the matching graph artifact — computing
// whatever prerequisites are still missing — and mirrors the results
// into the exported fields below.
type Flow struct {
	Cfg Config
	Lib *cell.Library

	Core *vex.Core
	NL   *netlist.Netlist
	PL   *place.Placement
	STA  *sta.Analyzer

	ClockPS float64
	FmaxMHz float64
	Derate  []float64

	// Characterize results, keyed by position name (A..D).
	MC map[string]*mc.Result
	// ScenarioPositions orders the violating positions least to most
	// severe (C, B, A), as consumed by island generation.
	ScenarioPositions []variation.Pos

	FIR      *vexsim.FIR
	Activity []float64

	graph *pipeline.Graph
	// mutated flips when InsertShifters splices the netlist: the
	// graph's stored artifacts no longer describe the design, so
	// further graph requests are refused and the remaining steps work
	// imperatively on the flow's own state.
	mutated bool
}

// New prepares a flow; no work happens until the step methods run.
func New(cfg Config) *Flow {
	lib := cell.Default65nm()
	return &Flow{
		Cfg:   cfg,
		Lib:   lib,
		graph: newGraph(cfg, lib, pipeline.NewMemStore()),
	}
}

// NewWithStore is New over a caller-supplied artifact store, the hook
// for durable caching: compose a fresh in-memory tier over a shared
// pipeline.DiskStore (opened with DiskCodecs) and repeated runs of the
// same Config skip straight to the persisted characterizations.
//
// The store must not be shared as a *memory* tier between flows: the
// graph's engine-state artifacts (netlist, placement, analyzer) are
// live objects, and InsertShifters mutates them in place. A DiskStore
// is safe to share — DiskCodecs persists only immutable pure-data
// artifacts — so the right composition is
// pipeline.NewTiered(pipeline.NewMemStore(), shared) per flow, which
// internal/cliutil.NewFlow does for the CLIs.
func NewWithStore(cfg Config, store pipeline.Store) *Flow {
	lib := cell.Default65nm()
	return &Flow{
		Cfg:   cfg,
		Lib:   lib,
		graph: newGraph(cfg, lib, store),
	}
}

// Position returns the named chip position of the variation model, or
// an error matching flowerr.ErrBadInput for a name the model does not
// define.
func (f *Flow) Position(name string) (variation.Pos, error) {
	if p, ok := f.Cfg.Model.Position(name); ok {
		return p, nil
	}
	return variation.Pos{}, flowerr.BadInputf("vipipe: unknown chip position %q (model defines A-D)", name)
}

// request resolves graph artifacts and mirrors them into the flow's
// exported fields. Even on error the completed part of the closure is
// adopted, so callers observe partial progress (e.g. the positions
// characterized before a cancellation).
func (f *Flow) request(ctx context.Context, ids ...string) (map[string]any, error) {
	if f.mutated {
		return nil, flowerr.StepOrderf(
			"vipipe: netlist was mutated by InsertShifters, graph artifacts are stale — rebuild from New before %s",
			strings.Join(ids, ","))
	}
	arts, err := f.graph.Request(ctx, ids...)
	f.adopt(arts)
	return arts, err
}

// adopt mirrors computed artifacts into the flow's exported fields.
func (f *Flow) adopt(arts map[string]any) {
	if v, ok := arts[NodeSynth]; ok {
		syn := v.(*Synth)
		f.Core, f.NL = syn.Core, syn.NL()
	}
	if v, ok := arts[NodePlace]; ok {
		f.PL = v.(*place.Placement)
	}
	if v, ok := arts[NodeAnalyze]; ok {
		tm := v.(*Timing)
		f.STA, f.ClockPS, f.FmaxMHz, f.Derate = tm.STA, tm.ClockPS, tm.FmaxMHz, tm.Derate
	}
	if v, ok := arts[NodeWorkload]; ok {
		w := v.(*Workload)
		f.FIR, f.Activity = w.FIR, w.Activity
	}
	if v, ok := arts[NodeLadder]; ok {
		f.ScenarioPositions = v.([]variation.Pos)
	}
	for id, v := range arts {
		if name, ok := strings.CutPrefix(id, "mc/"); ok {
			if f.MC == nil {
				f.MC = make(map[string]*mc.Result)
			}
			f.MC[name] = v.(*mc.Result)
		}
	}
}

// Synthesize builds the performance-optimized gate-level core.
func (f *Flow) Synthesize(ctx context.Context) error {
	_, err := f.request(ctx, NodeSynth)
	return err
}

// Place runs global placement (the paper's physical-synthesis step),
// synthesizing first if needed.
func (f *Flow) Place(ctx context.Context) error {
	_, err := f.request(ctx, NodePlace)
	return err
}

// Analyze runs nominal STA, fixes the clock at the critical path plus
// guard, and applies slack recovery so every stage sits near its wall
// (the paper's performance-optimized starting point, Fig. 3 setup).
// Prerequisite steps run automatically.
func (f *Flow) Analyze(ctx context.Context) error {
	_, err := f.request(ctx, NodeAnalyze)
	return err
}

// Characterize runs the Monte Carlo SSTA at every diagonal position
// and derives the scenario ladder (paper Sections 4.3-4.4). The four
// positions characterize concurrently; on cancellation the positions
// that completed remain in f.MC, and the error matches
// flowerr.ErrCancelled.
func (f *Flow) Characterize(ctx context.Context) error {
	_, err := f.request(ctx, NodeLadder)
	return err
}

// ScenarioLadder derives the scenario positions from per-position
// Monte Carlo results: island k is sized to compensate the most severe
// chip position that will be treated with only k islands, i.e. the
// last position (walking from worst A to best D in the given order)
// whose classification is still at least k. With the canonical ladder
// A=3, B=2, C=1, D=0 this selects C, B, A. It is shared by the
// graph's ladder node and service frontends that assemble the ladder
// from cached characterizations.
func ScenarioLadder(order []variation.Pos, results map[string]*mc.Result) ([]variation.Pos, error) {
	type classified struct {
		pos variation.Pos
		sc  mc.Scenario
	}
	var ladder []classified
	for _, pos := range order {
		res, ok := results[pos.Name]
		if !ok || res == nil {
			return nil, flowerr.BadInputf("vipipe: scenario ladder missing characterization at position %s", pos.Name)
		}
		sc, _ := res.Classify(0)
		ladder = append(ladder, classified{pos, sc})
	}
	var out []variation.Pos
	for want := mc.Scenario(1); want <= 3; want++ {
		var chosen *variation.Pos
		for i := range ladder {
			if ladder[i].sc >= want {
				chosen = &ladder[i].pos
			}
		}
		if chosen != nil {
			out = append(out, *chosen)
		}
	}
	if len(out) == 0 {
		return nil, flowerr.NoScenariof("vipipe: no violation scenarios found — nothing to compensate")
	}
	return out, nil
}

// SensorPlan derives the Razor sensor placement from the worst-case
// (point A) characterization.
func (f *Flow) SensorPlan() (*razor.Plan, error) {
	resA, ok := f.MC["A"]
	if !ok {
		return nil, flowerr.StepOrderf("vipipe: SensorPlan needs the position-A characterization — run Characterize first")
	}
	return razor.NewPlan(f.NL, resA, f.Cfg.SensorBudget), nil
}

// GenerateIslands runs the paper's placement-aware slicing for the
// characterized scenarios. Prerequisite steps (through Characterize)
// run automatically.
func (f *Flow) GenerateIslands(ctx context.Context, strategy vi.Strategy) (*vi.Partition, error) {
	arts, err := f.request(ctx, NodeIslands(strategy))
	if err != nil {
		return nil, err
	}
	return arts[NodeIslands(strategy)].(*vi.Partition), nil
}

// TimingModel returns the compact interface timing model for a
// strategy at a chip position, extracting it (and its dependency
// closure) on first use; repeated calls hit the graph's artifact
// cache, and a disk-tier store survives restarts.
func (f *Flow) TimingModel(ctx context.Context, strategy vi.Strategy, pos variation.Pos) (*tmodel.Model, error) {
	id := NodeTimingModel(strategy, pos.Name)
	arts, err := f.request(ctx, id)
	if err != nil {
		return nil, err
	}
	return arts[id].(*tmodel.Model), nil
}

// InsertShifters splices the partition's level shifters into the
// netlist, extends the placement and the derate vector, and refreshes
// the timing engine. It returns the shifter count and the critical-
// path degradation fraction (paper Section 4.6: 8% vertical, 15%
// horizontal).
//
// The step mutates netlist, placement, derate vector and timing engine
// together, so afterwards the flow's graph artifacts are stale: graph-
// backed steps refuse to run and SimulateWorkload/Power work on the
// mutated state directly. A failure after the netlist was already
// spliced cannot be rolled back; it is reported as an error matching
// flowerr.ErrPartialStep, and the flow must be rebuilt from a fresh
// New before further steps — re-running analysis on the half-updated
// state would silently mix stale and fresh timing.
func (f *Flow) InsertShifters(ctx context.Context, p *vi.Partition) (count int, degradation float64, err error) {
	if p == nil {
		return 0, 0, flowerr.BadInputf("vipipe: InsertShifters with nil partition")
	}
	if f.STA == nil {
		if _, err := f.request(ctx, NodeAnalyze); err != nil {
			return 0, 0, err
		}
	}
	if err := ctxErr(ctx, "InsertShifters"); err != nil {
		return 0, 0, err
	}
	_, span := obs.Start(ctx, "vi.insert_shifters")
	defer span.End()
	before := f.STA.Run(f.ClockPS, f.Derate).CritPS
	count, err = p.InsertShifters(f.PL)
	if err != nil {
		// Nothing was spliced: the partition pre-checks failed and
		// the flow state is untouched.
		return 0, 0, err
	}
	f.mutated = true
	// Clone before extending: the derate vector backs the graph's
	// timing artifact and must not grow in place.
	derate := make([]float64, f.NL.NumCells())
	for i := range derate {
		derate[i] = 1
	}
	copy(derate, f.Derate)
	f.Derate = derate
	if err := f.STA.Refresh(); err != nil {
		return count, 0, flowerr.PartialStepf(
			"vipipe: %d level shifters spliced but timing refresh failed, flow state is inconsistent — rebuild from New: %w",
			count, err)
	}
	after := f.STA.Run(f.ClockPS, f.Derate).CritPS
	span.SetAttr("shifters", count)
	return count, after/before - 1, nil
}

// SimulateWorkload co-simulates the FIR benchmark on the gate-level
// netlist against behavioral memories and records switching activity.
// Run it after any netlist mutation (level shifters, Razor flops) so
// the activity covers the final design: on a pristine flow it is the
// cached workload artifact, on a mutated flow it re-simulates the
// spliced netlist.
func (f *Flow) SimulateWorkload(ctx context.Context) error {
	if f.mutated {
		w, err := simulateWorkload(ctx, f.Cfg, f.Core)
		if err != nil {
			return err
		}
		f.FIR, f.Activity = w.FIR, w.Activity
		return nil
	}
	_, err := f.request(ctx, NodeWorkload)
	return err
}

// SystematicLgate returns per-cell gate lengths at a chip position
// with the random component suppressed: the "mean chip" used for
// scenario power reporting.
func (f *Flow) SystematicLgate(pos variation.Pos) []float64 {
	return systematicLgate(f.Cfg.Model, f.NL, f.PL, pos)
}

// Power runs the power analysis under an explicit domain assignment
// and chip position (leakage scales with the position's systematic
// gate length).
func (f *Flow) Power(domains []cell.Domain, pos variation.Pos) (*power.Report, error) {
	if f.Activity == nil {
		return nil, flowerr.StepOrderf("vipipe: Power needs switching activity — run SimulateWorkload first (and re-run it after InsertShifters)")
	}
	return power.Analyze(power.Inputs{
		NL:       f.NL,
		PL:       f.PL,
		Activity: f.Activity,
		FreqMHz:  f.FmaxMHz,
		Domains:  domains,
		LgateNM:  f.SystematicLgate(pos),
	})
}

// ScenarioPower reports the power of the VI design with islands
// 1..scenario raised, for a chip at pos (Fig. 5 / Fig. 6 data).
func (f *Flow) ScenarioPower(p *vi.Partition, scenario int, pos variation.Pos) (*power.Report, error) {
	if p == nil {
		return nil, flowerr.BadInputf("vipipe: ScenarioPower with nil partition")
	}
	return f.Power(p.Domains(scenario), pos)
}

// ChipWidePower reports the baseline of Figures 5 and 6: the whole
// design raised to high Vdd. Chip-wide adaptation needs no level
// shifters, so for a faithful baseline call this BEFORE
// InsertShifters (and after SimulateWorkload); calling it on a
// shifter-bearing netlist measures the VI layout run chip-wide, a
// conservative variant.
func (f *Flow) ChipWidePower(pos variation.Pos) (*power.Report, error) {
	if f.NL == nil {
		return nil, flowerr.StepOrderf("vipipe: ChipWidePower needs a netlist — run Synthesize first")
	}
	domains := make([]cell.Domain, f.NL.NumCells())
	for i := range domains {
		domains[i] = cell.DomainHigh
	}
	return f.Power(domains, pos)
}

// Check runs the design-rule checks over whatever state the flow has
// accumulated so far (netlist, placement, derate vector, and — when a
// partition is passed — island/level-shifter invariants). It returns
// nil when clean and an error matching flowerr.ErrDRC listing every
// violation otherwise. part may be nil. Run it between steps to catch
// corrupted state before it reaches a hot loop.
func (f *Flow) Check(part *vi.Partition) error {
	if f.NL == nil {
		return flowerr.StepOrderf("vipipe: Check needs a netlist — run Synthesize first")
	}
	in := drc.Inputs{NL: f.NL, PL: f.PL, Derate: f.Derate}
	if part != nil {
		in.Region = part.Region
		in.ShiftersInserted = len(part.Shifters) > 0
	}
	return drc.Check(in).Err()
}

// Run executes the standard sequence through Characterize: one graph
// request for the scenario ladder computes synthesis, placement,
// analysis and the four concurrent characterizations.
func (f *Flow) Run(ctx context.Context) error {
	return f.Characterize(ctx)
}

// ctxErr reports a context already expired before a step started.
func ctxErr(ctx context.Context, step string) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return flowerr.Cancelledf("vipipe: %s: %w", step, err)
	}
	return nil
}
