// Command vipipe runs the paper's complete experimental section: the
// design characterization of Table 1 and Section 4.2, the level-
// shifter overhead of Table 2, and the power comparisons of Figures 5
// and 6 (voltage-island designs vs chip-wide supply adaptation).
package main

import (
	"context"
	"flag"
	"fmt"
	"sort"

	"vipipe"
	"vipipe/internal/cliutil"
	"vipipe/internal/flowerr"
	"vipipe/internal/netlist"
	"vipipe/internal/power"
	"vipipe/internal/sta"
	"vipipe/internal/vi"
)

var app = cliutil.New("vipipe")

func fatal(err error) { app.Fatal(err) }

var runDRC bool

func main() {
	app.ConfigFlags(false)
	app.TraceFlag()
	app.ProfileFlag()
	app.StoreFlag()
	experiment := flag.String("experiment", "all", "one of: all, timing, table1, table2, fig5, fig6")
	flag.BoolVar(&runDRC, "drc", false, "run design-rule checks between flow steps and fail on violations")
	flag.Parse()

	ctx, stop := app.Context()
	defer stop()
	ctx, finishTrace := app.StartTrace(ctx)

	cfg := app.Config()

	switch *experiment {
	case "timing", "table1":
		f := baseFlow(ctx, cfg)
		if *experiment == "timing" {
			timingReport(f)
		} else {
			table1(f)
		}
	case "table2", "fig5", "fig6", "all":
		runAll(ctx, cfg, *experiment)
	default:
		fatal(flowerr.BadInputf("unknown experiment %q", *experiment))
	}
	if err := finishTrace(); err != nil {
		fatal(err)
	}
}

func baseFlow(ctx context.Context, cfg vipipe.Config) *vipipe.Flow {
	f := app.NewFlow(cfg)
	if err := f.Run(ctx); err != nil {
		fatal(err)
	}
	if err := f.SimulateWorkload(ctx); err != nil {
		fatal(err)
	}
	check(f, nil)
	return f
}

// check runs the DRC battery when -drc is set.
func check(f *vipipe.Flow, part *vi.Partition) {
	if !runDRC {
		return
	}
	if err := f.Check(part); err != nil {
		fatal(err)
	}
}

// timingReport prints the Section 4.2 scalars: fmax, area, and the
// critical-path composition through forwarding and ALU.
func timingReport(f *vipipe.Flow) {
	fmt.Printf("== Section 4.2 — design characterization\n")
	ds := f.NL.Stats()
	fmt.Printf("cells=%d area=%.0fum2 fmax=%.1fMHz (paper: 256MHz, 314638um2)\n",
		ds.Cells, ds.AreaUM2, f.FmaxMHz)
	rep := f.STA.Run(f.ClockPS, f.Derate)
	ex := rep.Lanes[netlist.StageExecute]
	var worst sta.Endpoint
	for _, ep := range rep.Endpoints {
		if ep.Inst == ex.Endpoint {
			worst = ep
		}
	}
	path := f.STA.CriticalPath(rep, worst, f.Derate)
	br := sta.PathBreakdown(path)
	total := 0.0
	keys := make([]string, 0, len(br))
	for k, v := range br {
		total += v
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return br[keys[i]] > br[keys[j]] })
	fmt.Printf("critical path (execute stage), %d cells, %.0fps:\n", len(path), worst.Arrival)
	for _, k := range keys {
		fmt.Printf("  %-18s %6.0fps %5.1f%%\n", k, br[k], 100*br[k]/total)
	}
	fmt.Printf("(paper: forwarding unit 22%%, ALU 60%%)\n\n")
}

// table1 prints the area and power breakdown per unit.
func table1(f *vipipe.Flow) {
	fmt.Printf("== Table 1 — area and power breakdown\n")
	posD, err := f.Position("D")
	if err != nil {
		fatal(err)
	}
	rep, err := f.Power(nil, posD)
	if err != nil {
		fatal(err)
	}
	ds := f.NL.Stats()
	areaBy := make(map[string]float64)
	for _, u := range ds.ByUnit {
		areaBy[u.Unit] = u.AreaUM2
	}
	fmt.Printf("%-14s %8s %8s\n", "unit", "area%", "power%")
	for _, u := range rep.ByUnit {
		fmt.Printf("%-14s %7.2f%% %7.2f%%\n", u.Unit,
			100*areaBy[u.Unit]/ds.AreaUM2, 100*u.TotalMW()/rep.TotalMW())
	}
	fmt.Printf("total: %.0fum2, %.3fmW, leakage %.2f%% (paper: 30.8mW, 1.1%%)\n\n",
		ds.AreaUM2, rep.TotalMW(), 100*rep.LeakMW/rep.TotalMW())
}

// runAll executes both slicing strategies and prints Table 2 and the
// Figure 5/6 comparisons (and, for "all", the timing and Table 1
// blocks from the shared pre-insertion flow).
func runAll(ctx context.Context, cfg vipipe.Config, experiment string) {
	type stratResult struct {
		strategy  vi.Strategy
		shifters  int
		areaFrac  float64
		degr      float64
		flow      *vipipe.Flow
		partition *vi.Partition
		baseline  map[string]*power.Report
	}
	var results []stratResult
	for _, strat := range []vi.Strategy{vi.Horizontal, vi.Vertical} {
		f := baseFlow(ctx, cfg)
		if experiment == "all" && strat == vi.Horizontal {
			timingReport(f)
			table1(f)
		}
		baseline := make(map[string]*power.Report)
		for _, pos := range cfg.Model.DiagonalPositions() {
			rep, err := f.ChipWidePower(pos)
			if err != nil {
				fatal(err)
			}
			baseline[pos.Name] = rep
		}
		part, err := f.GenerateIslands(ctx, strat)
		if err != nil {
			fatal(err)
		}
		n, degr, err := f.InsertShifters(ctx, part)
		if err != nil {
			fatal(err)
		}
		if err := f.SimulateWorkload(ctx); err != nil {
			fatal(err)
		}
		check(f, part)
		results = append(results, stratResult{
			strategy: strat, shifters: n, areaFrac: part.ShifterAreaFrac(),
			degr: degr, flow: f, partition: part, baseline: baseline,
		})
	}

	scenarioOf := map[string]int{"A": 3, "B": 2, "C": 1}
	positions := []string{"A", "B", "C"}

	if experiment == "table2" || experiment == "all" {
		fmt.Printf("== Table 2 — level-shifter overhead\n")
		fmt.Printf("%-28s %12s %12s\n", "", "horizontal", "vertical")
		fmt.Printf("%-28s %12d %12d\n", "number of LS", results[0].shifters, results[1].shifters)
		fmt.Printf("%-28s %11.2f%% %11.2f%%\n", "LS area (of logic)", 100*results[0].areaFrac, 100*results[1].areaFrac)
		for _, pn := range positions {
			fmt.Printf("%-28s", fmt.Sprintf("LS power (point %s)", pn))
			for _, r := range results {
				pos, err := r.flow.Position(pn)
				if err != nil {
					fatal(err)
				}
				rep, err := r.flow.ScenarioPower(r.partition, scenarioOf[pn], pos)
				if err != nil {
					fatal(err)
				}
				fmt.Printf(" %11.2f%%", 100*rep.ShifterFrac())
			}
			fmt.Println()
		}
		fmt.Printf("%-28s %11.1f%% %11.1f%%\n", "timing degradation", 100*results[0].degr, 100*results[1].degr)
		fmt.Printf("(paper: 8187/6353 shifters, 15%%/8%% degradation, LS power <= 5%%)\n\n")
	}

	if experiment == "fig5" || experiment == "fig6" || experiment == "all" {
		fmt.Printf("== Fig. 5 / Fig. 6 — normalized power vs chip-wide high Vdd\n")
		fmt.Printf("%-24s %12s %12s\n", "configuration", "total", "leakage")
		fmt.Printf("%-24s %12.3f %12.3f\n", "chip-wide high VDD", 1.0, 1.0)
		for _, pn := range positions {
			k := scenarioOf[pn]
			for _, r := range results {
				pos, err := r.flow.Position(pn)
				if err != nil {
					fatal(err)
				}
				rep, err := r.flow.ScenarioPower(r.partition, k, pos)
				if err != nil {
					fatal(err)
				}
				base := r.baseline[pn]
				fmt.Printf("%-24s %12.3f %12.3f\n",
					fmt.Sprintf("high VDD %d VI %s (pt %s)", k, abbrev(r.strategy), pn),
					rep.TotalMW()/base.TotalMW(), rep.LeakMW/base.LeakMW)
			}
		}
		fmt.Printf("(paper Fig. 5: vertical saves 8%% at A up to 27%% at C; Fig. 6: horizontal leakage exceeds chip-wide)\n")
	}
}

func abbrev(s vi.Strategy) string {
	if s == vi.Vertical {
		return "VER"
	}
	return "HOR"
}
