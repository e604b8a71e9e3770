package vipipe

import (
	"context"
	"fmt"

	"vipipe/internal/cell"
	"vipipe/internal/drc"
	"vipipe/internal/mc"
	"vipipe/internal/netlist"
	"vipipe/internal/pipeline"
	"vipipe/internal/place"
	"vipipe/internal/power"
	"vipipe/internal/sta"
	"vipipe/internal/variation"
	"vipipe/internal/vex"
	"vipipe/internal/vexsim"
	"vipipe/internal/vi"
)

// Node IDs of the flow's artifact graph. A node's store key is the
// configuration hash plus its ID (e.g. "a1b2c3.../mc/B"), so two
// graphs over the same shared store — however many flows, service
// jobs or CLI runs they serve — deduplicate every artifact.
const (
	// NodeSynth is the performance-optimized gate-level core
	// (artifact *Synth).
	NodeSynth = "synth"
	// NodePlace is the global placement (artifact *place.Placement).
	NodePlace = "place"
	// NodeAnalyze is nominal STA, clock selection and slack recovery
	// (artifact *Timing).
	NodeAnalyze = "analyze"
	// NodeWorkload is the FIR benchmark co-simulation with its
	// switching activity (artifact *Workload).
	NodeWorkload = "workload"
	// NodeLadder is the violation-scenario ladder derived from the
	// per-position characterizations (artifact []variation.Pos).
	NodeLadder = "ladder"
	// NodeDRC is the design-rule report over the placed, analyzed
	// baseline (artifact *drc.Report).
	NodeDRC = "drc"
)

// NodeMC returns the ID of the Monte Carlo characterization at a chip
// position ("mc/A" .. "mc/D"; artifact *mc.Result).
func NodeMC(pos string) string { return "mc/" + pos }

// NodeIslands returns the ID of the voltage-island partition for a
// slicing strategy ("vi/vertical", ...; artifact *vi.Partition).
func NodeIslands(s vi.Strategy) string { return "vi/" + s.String() }

// NodeChipWidePower returns the ID of the chip-wide high-Vdd power
// baseline at a position (artifact *power.Report).
func NodeChipWidePower(pos string) string { return "power/chipwide/" + pos }

// NodeScenarioPower returns the ID of the VI-design power report with
// islands 1..scenario raised, for a chip at pos (artifact
// *power.Report).
func NodeScenarioPower(s vi.Strategy, scenario int, pos string) string {
	return fmt.Sprintf("power/%s/%d/%s", s, scenario, pos)
}

// Synth is the artifact of NodeSynth: the cell library and the mapped
// gate-level core built against it.
type Synth struct {
	Lib  *cell.Library
	Core *vex.Core
}

// NL returns the synthesized netlist.
func (s *Synth) NL() *netlist.Netlist { return s.Core.NL }

// Timing is the artifact of NodeAnalyze: the timing engine with the
// derived clock and the recovered per-cell derate vector.
type Timing struct {
	STA     *sta.Analyzer
	ClockPS float64
	FmaxMHz float64
	Derate  []float64
}

// Workload is the artifact of NodeWorkload: the verified FIR
// benchmark run and its per-net switching activity.
type Workload struct {
	FIR      *vexsim.FIR
	Activity []float64
}

// NewGraph assembles the flow's artifact graph for a configuration
// over a store. Every step of the methodology is a node keyed by
// cfg.Hash(); independent nodes (the four chip-position Monte Carlo
// characterizations, the per-strategy island generations, the power
// evaluations) schedule concurrently, and a shared store makes the
// artifacts content-addressed across graphs. The graph never mutates
// its artifacts: level-shifter insertion — the one netlist-mutating
// step — stays outside, on Flow's private copy.
func NewGraph(cfg Config, store pipeline.Store, opts ...pipeline.Option) *pipeline.Graph {
	return newGraph(cfg, cell.Default65nm(), store, opts...)
}

// newBaselineGraph returns a graph holding the baseline nodes every
// flow builds on: synth, place and analyze, keyed by cfg.Hash().
func newBaselineGraph(cfg Config, lib *cell.Library, store pipeline.Store, opts ...pipeline.Option) *pipeline.Graph {
	g := pipeline.New(cfg.Hash(), store, opts...)

	g.MustAdd(pipeline.Node{
		ID: NodeSynth,
		Compute: func(ctx context.Context, _ map[string]any) (any, error) {
			if err := ctxErr(ctx, NodeSynth); err != nil {
				return nil, err
			}
			core, err := vex.Build(cfg.Core, lib)
			if err != nil {
				return nil, err
			}
			return &Synth{Lib: lib, Core: core}, nil
		},
		Size: func(v any) int64 {
			nl := v.(*Synth).NL()
			return int64(nl.NumCells())*250 + int64(nl.NumNets())*120
		},
	})

	g.MustAdd(pipeline.Node{
		ID:   NodePlace,
		Deps: []string{NodeSynth},
		Compute: func(ctx context.Context, deps map[string]any) (any, error) {
			if err := ctxErr(ctx, NodePlace); err != nil {
				return nil, err
			}
			return place.Global(deps[NodeSynth].(*Synth).NL(), cfg.Place)
		},
		Size: func(v any) int64 { return int64(v.(*place.Placement).NL.NumCells())*64 + 4096 },
	})

	g.MustAdd(pipeline.Node{
		ID:   NodeAnalyze,
		Deps: []string{NodeSynth, NodePlace},
		Compute: func(ctx context.Context, deps map[string]any) (any, error) {
			if err := ctxErr(ctx, NodeAnalyze); err != nil {
				return nil, err
			}
			syn := deps[NodeSynth].(*Synth)
			a, err := sta.New(syn.NL(), deps[NodePlace].(*place.Placement))
			if err != nil {
				return nil, err
			}
			nominal := a.Run(1e12, nil)
			clock := nominal.CritPS * (1 + cfg.ClockGuard)
			derate, err := a.SlackRecoveryCtx(ctx, clock, cfg.Recovery, cfg.MaxDerate, 25)
			if err != nil {
				return nil, err
			}
			return &Timing{STA: a, ClockPS: clock, FmaxMHz: sta.FmaxMHz(clock), Derate: derate}, nil
		},
		Size: func(v any) int64 { return int64(len(v.(*Timing).Derate))*200 + 4096 },
	})
	return g
}

// newGraph is NewGraph with an explicit library, so Flow can share
// one library instance between its fields and its graph.
func newGraph(cfg Config, lib *cell.Library, store pipeline.Store, opts ...pipeline.Option) *pipeline.Graph {
	g := newBaselineGraph(cfg, lib, store, opts...)
	positions := cfg.Model.DiagonalPositions()

	g.MustAdd(pipeline.Node{
		ID:   NodeWorkload,
		Deps: []string{NodeSynth},
		Compute: func(ctx context.Context, deps map[string]any) (any, error) {
			return simulateWorkload(ctx, cfg, deps[NodeSynth].(*Synth).Core)
		},
		Size: func(v any) int64 { return int64(len(v.(*Workload).Activity))*8 + 8192 },
	})

	mcIDs := make([]string, 0, len(positions))
	for _, pos := range positions {
		pos := pos
		id := NodeMC(pos.Name)
		mcIDs = append(mcIDs, id)
		g.MustAdd(pipeline.Node{
			ID:   id,
			Deps: []string{NodeAnalyze},
			Compute: func(ctx context.Context, deps map[string]any) (any, error) {
				tm := deps[NodeAnalyze].(*Timing)
				// The shared analyzer is safe for concurrent
				// re-timing: mc.Run itself fans workers out over it,
				// and sibling positions run the same way in parallel.
				res, err := mc.Run(ctx, tm.STA, &cfg.Model, pos, mc.Options{
					Samples:        cfg.MCSamples,
					Seed:           cfg.Seed,
					ClockPS:        tm.ClockPS,
					Derate:         tm.Derate,
					PanicTolerance: cfg.PanicTolerance,
				})
				if err != nil {
					return nil, err
				}
				return res, nil
			},
			Size: func(v any) int64 {
				res := v.(*mc.Result)
				return int64(res.Samples)*int64(len(res.PerStage)+1)*16 + 4096
			},
		})
	}

	g.MustAdd(pipeline.Node{
		ID:   NodeLadder,
		Deps: mcIDs,
		Compute: func(_ context.Context, deps map[string]any) (any, error) {
			results := make(map[string]*mc.Result, len(positions))
			for _, pos := range positions {
				results[pos.Name] = deps[NodeMC(pos.Name)].(*mc.Result)
			}
			return ScenarioLadder(positions, results)
		},
	})

	for _, strat := range []vi.Strategy{vi.Vertical, vi.Horizontal, vi.Corner} {
		strat := strat
		g.MustAdd(pipeline.Node{
			ID:   NodeIslands(strat),
			Deps: []string{NodeAnalyze, NodeLadder},
			Compute: func(ctx context.Context, deps map[string]any) (any, error) {
				tm := deps[NodeAnalyze].(*Timing)
				return vi.Generate(ctx, tm.STA, &cfg.Model, deps[NodeLadder].([]variation.Pos), vi.Options{
					Strategy: strat,
					ClockPS:  tm.ClockPS,
					Derate:   tm.Derate,
					Samples:  cfg.VISamples,
					Seed:     cfg.Seed,
				})
			},
			Size: func(v any) int64 { return int64(len(v.(*vi.Partition).Region))*8 + 4096 },
		})
	}

	powerSize := func(any) int64 { return 4096 }
	for _, pos := range positions {
		pos := pos
		g.MustAdd(pipeline.Node{
			ID:   NodeChipWidePower(pos.Name),
			Deps: []string{NodeSynth, NodePlace, NodeAnalyze, NodeWorkload},
			Compute: func(ctx context.Context, deps map[string]any) (any, error) {
				if err := ctxErr(ctx, NodeChipWidePower(pos.Name)); err != nil {
					return nil, err
				}
				nl := deps[NodeSynth].(*Synth).NL()
				domains := make([]cell.Domain, nl.NumCells())
				for i := range domains {
					domains[i] = cell.DomainHigh
				}
				return analyzePower(cfg, deps, domains, pos)
			},
			Size: powerSize,
		})
		for _, strat := range []vi.Strategy{vi.Vertical, vi.Horizontal, vi.Corner} {
			strat := strat
			for scenario := 0; scenario <= 3; scenario++ {
				scenario := scenario
				g.MustAdd(pipeline.Node{
					ID:   NodeScenarioPower(strat, scenario, pos.Name),
					Deps: []string{NodeSynth, NodePlace, NodeAnalyze, NodeWorkload, NodeIslands(strat)},
					Compute: func(ctx context.Context, deps map[string]any) (any, error) {
						if err := ctxErr(ctx, NodeScenarioPower(strat, scenario, pos.Name)); err != nil {
							return nil, err
						}
						part := deps[NodeIslands(strat)].(*vi.Partition)
						return analyzePower(cfg, deps, part.Domains(scenario), pos)
					},
					Size: powerSize,
				})
			}
		}
	}

	addTimingModelNodes(g, cfg, positions)

	g.MustAdd(pipeline.Node{
		ID:   NodeDRC,
		Deps: []string{NodeSynth, NodePlace, NodeAnalyze},
		Compute: func(ctx context.Context, deps map[string]any) (any, error) {
			if err := ctxErr(ctx, NodeDRC); err != nil {
				return nil, err
			}
			return drc.Check(drc.Inputs{
				NL:     deps[NodeSynth].(*Synth).NL(),
				PL:     deps[NodePlace].(*place.Placement),
				Derate: deps[NodeAnalyze].(*Timing).Derate,
			}), nil
		},
	})
	return g
}

// analyzePower runs the power model over graph artifacts for an
// explicit domain assignment at a chip position.
func analyzePower(cfg Config, deps map[string]any, domains []cell.Domain, pos variation.Pos) (*power.Report, error) {
	nl := deps[NodeSynth].(*Synth).NL()
	pl := deps[NodePlace].(*place.Placement)
	return power.Analyze(power.Inputs{
		NL:       nl,
		PL:       pl,
		Activity: deps[NodeWorkload].(*Workload).Activity,
		FreqMHz:  deps[NodeAnalyze].(*Timing).FmaxMHz,
		Domains:  domains,
		LgateNM:  systematicLgate(cfg.Model, nl, pl, pos),
	})
}

// systematicLgate returns per-cell gate lengths at a chip position
// with the random component suppressed: the "mean chip" used for
// scenario power reporting.
func systematicLgate(model variation.Model, nl *netlist.Netlist, pl *place.Placement, pos variation.Pos) []float64 {
	lg := make([]float64, nl.NumCells())
	for i := range lg {
		cx, cy := pl.Center(i)
		lg[i] = model.SystematicLgateNM(pos.XMM+cx/1000, pos.YMM+cy/1000)
	}
	return lg
}

// simulateWorkload co-simulates the FIR benchmark on a core and
// verifies the filter output before reporting switching activity.
func simulateWorkload(ctx context.Context, cfg Config, core *vex.Core) (*Workload, error) {
	fir, err := vexsim.NewFIR(cfg.Core, cfg.FIRSamples, cfg.FIRTaps, cfg.Seed)
	if err != nil {
		return nil, err
	}
	tb, err := vexsim.NewTestbench(core, fir.Prog, fir.DMem)
	if err != nil {
		return nil, err
	}
	if err := tb.RunContext(ctx, fir.Cycles); err != nil {
		return nil, err
	}
	if idx := fir.CheckResults(tb.DMem); idx >= 0 {
		return nil, fmt.Errorf("vipipe: FIR output wrong at %d — netlist broken", idx)
	}
	return &Workload{FIR: fir, Activity: tb.Activity()}, nil
}
