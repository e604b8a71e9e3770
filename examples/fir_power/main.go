// fir_power reproduces the paper's power-measurement methodology: the
// FIR filtering benchmark runs on the gate-level core against
// behavioral memories (the Modelsim step), per-net switching activity
// is back-annotated into the power model (the PrimePower step), and
// the per-unit breakdown of Table 1 comes out — plus the dual-Vdd
// comparison of running the same workload entirely at 1.2V.
//
// Run with:
//
//	go run ./examples/fir_power
package main

import (
	"context"
	"fmt"
	"log"

	"vipipe"
)

func main() {
	cfg := vipipe.TestConfig()
	flow := vipipe.New(cfg)
	ctx := context.Background()
	if err := flow.Run(ctx); err != nil {
		log.Fatal(err)
	}

	// Co-simulate the FIR benchmark; the flow checks every filter
	// output word against the values NewFIR computes from the ISA's
	// semantics, so a power number here is backed by a
	// functionally-correct run.
	if err := flow.SimulateWorkload(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("FIR: %d samples x %d taps, %d cycles simulated\n\n",
		flow.FIR.N, flow.FIR.T, flow.FIR.Cycles)

	// Nominal power at 1.0V for a chip with no systematic penalty
	// (position D) — the Table 1 configuration.
	pos, err := flow.Position("D")
	if err != nil {
		log.Fatal(err)
	}
	low, err := flow.Power(nil, pos)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("— all cells at 1.0V (Table 1):")
	fmt.Println(low)

	// The chip-wide 1.2V baseline the paper compares against.
	high, err := flow.ChipWidePower(pos)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("— chip-wide 1.2V (the paper's brute-force compensation):")
	fmt.Println(high)

	fmt.Printf("chip-wide boost costs %.1f%% more total power and %.1f%% more leakage\n",
		100*(high.TotalMW()/low.TotalMW()-1), 100*(high.LeakMW/low.LeakMW-1))
}
