// Quickstart: build the VEX core, place it, run static timing, and
// print the headline numbers of the paper's Section 4.2 — the maximum
// frequency, the area breakdown (Table 1), and the critical path's
// composition through the forwarding unit and the ALU.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"vipipe"
	"vipipe/internal/netlist"
	"vipipe/internal/sta"
)

func main() {
	// The reduced core keeps this example under a second; swap in
	// vipipe.DefaultConfig() for the paper's full-size 32-bit
	// 4-issue core.
	cfg := vipipe.TestConfig()
	flow := vipipe.New(cfg)
	ctx := context.Background()

	if err := flow.Synthesize(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthesized %q: %d cells, %d nets\n",
		flow.NL.Name, flow.NL.NumCells(), flow.NL.NumNets())

	if err := flow.Place(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("placed on a %.0fx%.0fum die (%d rows), HPWL %.0fum\n",
		flow.PL.DieW, flow.PL.DieH, flow.PL.Rows, flow.PL.HPWL())

	if err := flow.Analyze(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fmax %.1f MHz (clock %.0f ps)\n\n", flow.FmaxMHz, flow.ClockPS)

	// Area breakdown (Table 1, area column).
	fmt.Println(flow.NL.Stats())

	// Critical-path composition (Section 4.2: forwarding 22%, ALU 60%).
	rep := flow.STA.Run(flow.ClockPS, flow.Derate)
	ex := rep.Lanes[netlist.StageExecute]
	var worst sta.Endpoint
	for _, ep := range rep.Endpoints {
		if ep.Inst == ex.Endpoint {
			worst = ep
		}
	}
	path := flow.STA.CriticalPath(rep, worst, flow.Derate)
	br := sta.PathBreakdown(path)
	keys := make([]string, 0, len(br))
	for k := range br {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return br[keys[i]] > br[keys[j]] })
	fmt.Printf("execute-stage critical path (%d cells, %.0f ps):\n", len(path), worst.Arrival)
	for _, k := range keys {
		fmt.Printf("  %-16s %6.0f ps (%4.1f%%)\n", k, br[k], 100*br[k]/worst.Arrival)
	}
}
