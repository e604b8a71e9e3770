package vipipe

import (
	"context"
	"errors"

	"vipipe/internal/cell"
	"vipipe/internal/netlist"
	"vipipe/internal/pipeline"
	"vipipe/internal/place"
	"vipipe/internal/sta"
	"vipipe/internal/tmodel"
	"vipipe/internal/variation"
	"vipipe/internal/vi"
)

// NodeTimingModel returns the ID of the compact interface timing model
// extracted for a slicing strategy at a chip position
// ("tmodel/vertical/A", ...; artifact *tmodel.Model). The model is
// pure data, so DiskCodecs persists it: a restarted daemon answers
// what-if queries without re-extraction.
func NodeTimingModel(s vi.Strategy, pos string) string {
	return "tmodel/" + s.String() + "/" + pos
}

// addTimingModelNodes wires one extraction node per (strategy,
// position) pair into the flow graph.
func addTimingModelNodes(g *pipeline.Graph, cfg Config, positions []variation.Pos) {
	for _, strat := range []vi.Strategy{vi.Vertical, vi.Horizontal, vi.Corner} {
		strat := strat
		for _, pos := range positions {
			pos := pos
			id := NodeTimingModel(strat, pos.Name)
			g.MustAdd(pipeline.Node{
				ID:   id,
				Deps: []string{NodeSynth, NodePlace, NodeAnalyze, NodeIslands(strat)},
				Compute: func(ctx context.Context, deps map[string]any) (any, error) {
					if err := ctxErr(ctx, id); err != nil {
						return nil, err
					}
					return extractTimingModel(cfg, deps, strat, pos)
				},
				Size: func(v any) int64 {
					m := v.(*tmodel.Model)
					return int64(m.Cells.NumCells())*96 + int64(len(m.Sigs))*256 + 4096
				},
			})
		}
	}
}

// extractTimingModel assembles the extraction input from graph
// artifacts: the kernel's timing view, the partition's island regions,
// the position's systematic gate lengths and the recovered derates.
func extractTimingModel(cfg Config, deps map[string]any, strat vi.Strategy, pos variation.Pos) (*tmodel.Model, error) {
	syn := deps[NodeSynth].(*Synth)
	pl := deps[NodePlace].(*place.Placement)
	tm := deps[NodeAnalyze].(*Timing)
	part := deps[NodeIslands(strat)].(*vi.Partition)
	nl := syn.NL()
	n := nl.NumCells()
	xum := make([]float64, n)
	yum := make([]float64, n)
	for i := 0; i < n; i++ {
		xum[i], yum[i] = pl.Center(i)
	}
	kern := sta.NewKernel(tm.STA)
	return tmodel.Extract(tmodel.ExtractInput{
		View:      kern.View(),
		ClockPS:   tm.ClockPS,
		Region:    part.Region,
		Islands:   part.NumIslands(),
		LgNM:      systematicLgate(cfg.Model, nl, pl, pos),
		Derate:    tm.Derate,
		XUM:       xum,
		YUM:       yum,
		Tech:      nl.Lib.Tech,
		LnomNM:    cfg.Model.LnomNM,
		ShifterPS: nominalShifterPS(syn.Lib),
		Pos:       pos.Name,
		Strategy:  strat.String(),
	})
}

// nominalShifterPS estimates one level shifter's delay cost: its
// intrinsic delay plus driving a load like its own input pin.
func nominalShifterPS(lib *cell.Library) float64 {
	ls := lib.Cell(cell.LvlShift)
	return ls.IntrinsicPS + ls.DrivePSPerFF*ls.InputCapFF
}

// EvalWhatIf answers a what-if query with the compact model when the
// query is inside its validity domain, and falls back to one exact STA
// evaluation when it is not (errors.Is(..., tmodel.ErrOutOfDomain)).
// The fallback builds the full per-instance scale vector for the
// mutated operating point — island raise by the partition's regions,
// overlay excursion on the systematic gate lengths — and runs the
// kernel, so its answer carries BoundPS = 0, Exact = true, and is
// bit-identical to Analyzer.RunInto at that operating point. Shifter
// estimates are composition-only: an out-of-domain query with
// Shifters set reports the exact answer with zero crossings.
func EvalWhatIf(cfg Config, tm *Timing, part *vi.Partition, m *tmodel.Model, pos variation.Pos, q tmodel.Query) (tmodel.Answer, error) {
	ans, err := m.Eval(q)
	if err == nil {
		return ans, nil
	}
	if !errors.Is(err, tmodel.ErrOutOfDomain) {
		return tmodel.Answer{}, err
	}
	return exactWhatIf(cfg, tm, part, pos, q)
}

// exactWhatIf is the exact-STA fallback path of EvalWhatIf.
func exactWhatIf(cfg Config, tm *Timing, part *vi.Partition, pos variation.Pos, q tmodel.Query) (tmodel.Answer, error) {
	a := tm.STA
	nl, pl := a.NL, a.PL
	n := nl.NumCells()
	lg := systematicLgate(cfg.Model, nl, pl, pos)
	var deltaNM, r2 float64
	if q.Overlay != nil {
		deltaNM = cfg.Model.LnomNM * q.Overlay.DeltaFrac
		r2 = q.Overlay.RMM * q.Overlay.RMM
	}
	domains := make([]cell.Domain, n)
	for i := 0; i < n; i++ {
		if q.Overlay != nil {
			cx, cy := pl.Center(i)
			dx := cx/1000 - q.Overlay.XMM
			dy := cy/1000 - q.Overlay.YMM
			if dx*dx+dy*dy <= r2 {
				lg[i] += deltaNM
			}
		}
		if int(part.Region[i]) <= q.Raise {
			domains[i] = cell.DomainHigh
		}
	}
	scale := make([]float64, n)
	scaler := nl.Lib.Tech.SampleScaler()
	scaler.Scale(scale, lg, tm.Derate, domains)
	kern := sta.NewKernel(a)
	frame := &sta.Frame{}
	kern.RunFrame(frame, tm.ClockPS, scale)

	ans := tmodel.Answer{
		CritPS:       frame.CritPS,
		FmaxMHz:      sta.FmaxMHz(frame.CritPS),
		WorstSlackPS: frame.WorstSlack,
		Exact:        true,
	}
	for st := netlist.Stage(0); st < netlist.NumStages; st++ {
		if !frame.Present[st] {
			continue
		}
		lane := frame.Lanes[st]
		ans.PerStage = append(ans.PerStage, tmodel.StageAnswer{
			Stage:        st,
			WorstSlackPS: lane.WorstSlack,
			Endpoint:     int32(lane.Endpoint),
		})
	}
	return ans, nil
}
