package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"vipipe"
	"vipipe/internal/obs"
	"vipipe/internal/power"
	"vipipe/internal/service"
	"vipipe/internal/service/wire"
	"vipipe/internal/stats"
	"vipipe/internal/vi"
)

// paperFlow is the paper's whole methodology as a batch user runs it,
// cold every time: per slicing strategy a fresh vipipe.Flow that
// characterizes (Monte Carlo SSTA at A-D), measures the chip-wide
// baseline power, generates the voltage islands, inserts level
// shifters, re-simulates the FIR workload and prices each violation
// scenario (Table 2, Figs. 5 and 6).
type paperFlow struct {
	seed int64
	// setups counts set-up runs, so each warms on its own config.
	setups int
}

// strategyResult is one strategy's half of an op result.
type strategyResult struct {
	Islands         wire.Partition     `json:"islands"`
	Shifters        int                `json:"shifters"`
	ShifterAreaFrac float64            `json:"shifter_area_frac"`
	DegradationFrac float64            `json:"degradation_frac"`
	ChipWide        []wire.PowerReport `json:"chip_wide"`
	Scenario        []wire.PowerReport `json:"scenario"`
}

// scenarioOf is the paper's scenario ladder: islands raised per chip
// position.
var scenarioOf = []struct {
	pos string
	k   int
}{{"A", 3}, {"B", 2}, {"C", 1}}

var strategies = []vi.Strategy{vi.Vertical, vi.Horizontal}

// config returns the flow config of a named op. Configs draw their
// seed from 1..200, a range checked to classify violation scenarios
// at every seed, so no op fails for want of a scenario to compensate.
func (w *paperFlow) config(name string) vipipe.Config {
	cfg := vipipe.TestConfig()
	cfg.Seed = 1 + int64(stats.DeriveStream(w.seed, "bench/paper_flow/"+name).Intn(200))
	return cfg
}

// setup runs one whole flow as a warm-up: the process's first flow
// pays heap growth and first-touch costs that steady-state ops do not.
func (w *paperFlow) setup(ctx context.Context) error {
	w.setups++
	_, err := w.run(ctx, w.config(fmt.Sprintf("setup/%d", w.setups)))
	return err
}

func (w *paperFlow) op(ctx context.Context, i int) ([]byte, error) {
	return w.run(ctx, w.config(fmt.Sprint(i)))
}

func (w *paperFlow) run(ctx context.Context, cfg vipipe.Config) ([]byte, error) {
	var out []strategyResult
	for _, strat := range strategies {
		res, err := flowOnce(ctx, cfg, strat)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", strat, err)
		}
		out = append(out, res)
	}
	return encodeWire(out)
}

// flowOnce is the cmd/vipipe runAll sequence for one strategy. Calls
// that take no context get benchmark-owned spans, so a traced op
// attributes their time.
func flowOnce(ctx context.Context, cfg vipipe.Config, strat vi.Strategy) (strategyResult, error) {
	var res strategyResult
	f := vipipe.New(cfg)
	if err := f.Run(ctx); err != nil {
		return res, err
	}
	if err := f.SimulateWorkload(ctx); err != nil {
		return res, err
	}
	for _, pos := range cfg.Model.DiagonalPositions() {
		rep, err := spanned(ctx, "power.chipwide", func() (*power.Report, error) { return f.ChipWidePower(pos) })
		if err != nil {
			return res, err
		}
		res.ChipWide = append(res.ChipWide, wire.FromPowerReport(rep))
	}
	part, err := f.GenerateIslands(ctx, strat)
	if err != nil {
		return res, err
	}
	res.Islands = wire.FromPartition(part)
	if res.Shifters, res.DegradationFrac, err = f.InsertShifters(ctx, part); err != nil {
		return res, err
	}
	res.ShifterAreaFrac = part.ShifterAreaFrac()
	sctx, span := obs.Start(ctx, "vexsim.resimulate")
	err = f.SimulateWorkload(sctx)
	span.End()
	if err != nil {
		return res, err
	}
	for _, sc := range scenarioOf {
		pos, err := f.Position(sc.pos)
		if err != nil {
			return res, err
		}
		rep, err := spanned(ctx, "power.scenario", func() (*power.Report, error) { return f.ScenarioPower(part, sc.k, pos) })
		if err != nil {
			return res, err
		}
		res.Scenario = append(res.Scenario, wire.FromPowerReport(rep))
	}
	return res, nil
}

// spanned runs fn under a benchmark-owned span.
func spanned[T any](ctx context.Context, name string, fn func() (T, error)) (T, error) {
	_, span := obs.Start(ctx, name)
	defer span.End()
	return fn()
}

func (w *paperFlow) check(i int, res []byte) error {
	var out []strategyResult
	if err := json.Unmarshal(res, &out); err != nil {
		return err
	}
	if len(out) != len(strategies) {
		return fmt.Errorf("%d strategy results, want %d", len(out), len(strategies))
	}
	for k, r := range out {
		switch {
		case len(r.Islands.Islands) == 0:
			return fmt.Errorf("%s: no islands", strategies[k])
		case r.Shifters <= 0:
			return fmt.Errorf("%s: %d level shifters", strategies[k], r.Shifters)
		case len(r.ChipWide) != 4 || len(r.Scenario) != len(scenarioOf):
			return fmt.Errorf("%s: %d chip-wide and %d scenario power reports", strategies[k], len(r.ChipWide), len(r.Scenario))
		}
		for _, p := range append(r.ChipWide, r.Scenario...) {
			if !(p.TotalMW > 0) {
				return fmt.Errorf("%s: power report with total %g mW", strategies[k], p.TotalMW)
			}
		}
	}
	return nil
}

// verify re-runs op 0 cold and requires identical bytes, then checks
// its pre-shifter artifacts against service.Engine, which reaches the
// same graph nodes through its own cache: the islands of each strategy
// and the chip-wide power at every position.
func (w *paperFlow) verify(ctx context.Context, res0 []byte) error {
	cfg := w.config("0")
	again, err := w.run(ctx, cfg)
	if err != nil {
		return err
	}
	if !bytes.Equal(again, res0) {
		return fmt.Errorf("op 0 is not deterministic: a second cold run differs")
	}
	var out []strategyResult
	if err := json.Unmarshal(res0, &out); err != nil {
		return err
	}
	eng := service.NewEngine(service.NewCache(256<<20), nil)
	spec := service.ConfigSpec{Small: true, Seed: cfg.Seed}
	same := func(req service.Request, want any) error {
		v, err := eng.Run(ctx, req)
		if err != nil {
			return err
		}
		a, err := encodeWire(v)
		if err != nil {
			return err
		}
		b, err := encodeWire(want)
		if err != nil {
			return err
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("flow and engine disagree on %s %s%s", req.Kind, req.Strategy, req.Position)
		}
		return nil
	}
	for k, strat := range strategies {
		if err := same(service.Request{Kind: "islands", Strategy: strat.String(), Config: spec}, out[k].Islands); err != nil {
			return err
		}
		for p, pos := range cfg.Model.DiagonalPositions() {
			if err := same(service.Request{Kind: "chipwide_power", Position: pos.Name, Config: spec}, out[k].ChipWide[p]); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *paperFlow) shards() (computed, cached int64) { return 0, 0 }

func (w *paperFlow) core() probeCore { return probeCore{small: true} }
