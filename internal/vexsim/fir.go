package vexsim

import (
	"fmt"
	"strings"

	"vipipe/internal/flowerr"
	"vipipe/internal/isa"
	"vipipe/internal/stats"
	"vipipe/internal/vex"
)

// FIR describes a generated FIR-filter benchmark: the paper uses "a
// FIR filtering benchmark executed on the VEX processor core" for all
// power assessments. The generated program computes the correlation
// form y[n] = sum_k h[k] * x[n+k] with half-width unsigned multiplies
// (the core's MPYLU), scheduled by hand to respect the exposed
// branch-latency rule — the stand-in for the VEX trace-scheduling
// compiler.
type FIR struct {
	N, T  int // input samples and filter taps
	XBase uint64
	HBase uint64
	YBase uint64
	NOut  int

	Prog   [][]uint32 // assembled bundles
	DMem   []uint64   // initial data memory (x then h)
	Expect []uint64   // expected y values, width-masked
	Cycles int        // cycle budget that retires the whole program
}

// ValidateFIR checks that a FIR benchmark of n samples and taps
// coefficients fits the core: taps >= 2, n >= taps, and the x, h and y
// arrays inside both data memory and the address space. Request
// validation runs it at submit, and NewFIR before it builds anything.
func ValidateFIR(cfg vex.Config, n, taps int) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	// Bound n first, so the footprint sum below cannot overflow.
	if taps < 2 || n < taps || n > DMemWords {
		return flowerr.BadInputf("vexsim: need 2 <= taps <= n <= %d, got n=%d taps=%d", DMemWords, n, taps)
	}
	// y follows x (n words) and h (taps words) and holds n-taps+1 outputs.
	end := (n + taps) + (n - taps + 1)
	if end >= DMemWords {
		return flowerr.BadInputf("vexsim: FIR footprint exceeds data memory")
	}
	// Addresses must be representable in the data width.
	if int64(end) >= 1<<uint(cfg.Width) {
		return flowerr.BadInputf("vexsim: FIR footprint exceeds %d-bit address space", cfg.Width)
	}
	return nil
}

// NewFIR builds the benchmark for a core configuration. Samples and
// coefficients are drawn deterministically from seed.
func NewFIR(cfg vex.Config, n, taps int, seed int64) (*FIR, error) {
	if err := ValidateFIR(cfg, n, taps); err != nil {
		return nil, err
	}
	f := &FIR{
		N: n, T: taps,
		XBase: 0,
		HBase: uint64(n),
		YBase: uint64(n + taps),
		NOut:  n - taps + 1,
	}

	// Stimulus: half-width random samples, as the multiplier consumes
	// half-width operands.
	half := uint64(1)<<uint(cfg.Width/2) - 1
	mask := uint64(1)<<uint(cfg.Width) - 1
	rng := stats.DeriveStream(seed, "fir-stimulus")
	f.DMem = make([]uint64, int(f.YBase))
	for i := 0; i < n; i++ {
		f.DMem[int(f.XBase)+i] = uint64(rng.Int63()) & half
	}
	for k := 0; k < taps; k++ {
		f.DMem[int(f.HBase)+k] = uint64(rng.Int63()) & half
	}

	// Reference output with the ISA's masking semantics.
	f.Expect = make([]uint64, f.NOut)
	for i := 0; i < f.NOut; i++ {
		var acc uint64
		for k := 0; k < taps; k++ {
			x := f.DMem[int(f.XBase)+i+k] & half
			h := f.DMem[int(f.HBase)+k] & half
			acc = (acc + x*h) & mask
		}
		f.Expect[i] = acc
	}

	src, cycles := firSource(cfg, f)
	bundles, err := isa.Assemble(src, cfg.Slots, cfg.Regs-1)
	if err != nil {
		return nil, fmt.Errorf("vexsim: FIR assembly failed: %w", err)
	}
	if len(bundles) > 1<<cfg.PCBits {
		return nil, fmt.Errorf("vexsim: FIR program too large for PC width")
	}
	f.Prog = make([][]uint32, len(bundles))
	for i, b := range bundles {
		f.Prog[i] = isa.EncodeBundle(b, cfg.Slots)
	}
	f.Cycles = cycles
	return f, nil
}

// firSource emits the scheduled assembly. Two schedules exist: a
// 4-wide one processing two taps per inner iteration (two parallel
// multiplies, exercising every execution slot as the paper's compiler
// would), and a 2-wide fallback. Registers:
//
//	r1 x pointer, r2 h pointer, r3 y pointer, r4 outer counter,
//	r5 inner counter, r6-r9 sample/coefficient values,
//	r10 accumulator, r11/r12 products, r13 outer x base.
func firSource(cfg vex.Config, f *FIR) (string, int) {
	var b strings.Builder
	unroll2 := cfg.Slots >= 4 && f.T%2 == 0
	fmt.Fprintf(&b, "# FIR benchmark: N=%d taps=%d unroll2=%v\n", f.N, f.T, unroll2)
	fmt.Fprintf(&b, "  addi $r4, $r0, %d ; addi $r13, $r0, %d\n", f.NOut, f.XBase)
	fmt.Fprintf(&b, "  addi $r3, $r0, %d ; nop\n", f.YBase)

	var innerBundles int
	if unroll2 {
		fmt.Fprintf(&b, "outer:\n")
		fmt.Fprintf(&b, "  addi $r5, $r0, %d ; add $r10, $r0, $r0 ; add $r1, $r13, $r0 ; addi $r2, $r0, %d\n", f.T/2, f.HBase)
		fmt.Fprintf(&b, "  addi $r4, $r4, -1 ; nop ; nop ; nop\n")
		fmt.Fprintf(&b, "inner:\n")
		fmt.Fprintf(&b, "  ld $r6, 0($r1) ; ld $r7, 0($r2) ; ld $r8, 1($r1) ; ld $r9, 1($r2)\n")
		fmt.Fprintf(&b, "  addi $r1, $r1, 2 ; addi $r2, $r2, 2 ; addi $r5, $r5, -1 ; nop\n")
		fmt.Fprintf(&b, "  mpylu $r11, $r6, $r7 ; mpylu $r12, $r8, $r9 ; nop ; nop\n")
		fmt.Fprintf(&b, "  add $r10, $r10, $r11 ; nop ; nop ; nop\n")
		fmt.Fprintf(&b, "  bnez $r5, inner ; add $r10, $r10, $r12 ; nop ; nop\n")
		fmt.Fprintf(&b, "  st $r10, 0($r3) ; addi $r3, $r3, 1 ; addi $r13, $r13, 1 ; nop\n")
		fmt.Fprintf(&b, "  bnez $r4, outer\n")
		innerBundles = 5
	} else {
		fmt.Fprintf(&b, "outer:\n")
		fmt.Fprintf(&b, "  addi $r5, $r0, %d ; add $r10, $r0, $r0\n", f.T)
		fmt.Fprintf(&b, "  add $r1, $r13, $r0 ; addi $r2, $r0, %d\n", f.HBase)
		fmt.Fprintf(&b, "  addi $r4, $r4, -1 ; nop\n")
		fmt.Fprintf(&b, "inner:\n")
		fmt.Fprintf(&b, "  ld $r6, 0($r1) ; ld $r7, 0($r2)\n")
		fmt.Fprintf(&b, "  addi $r1, $r1, 1 ; addi $r2, $r2, 1\n")
		fmt.Fprintf(&b, "  addi $r5, $r5, -1 ; mpylu $r11, $r6, $r7\n")
		fmt.Fprintf(&b, "  add $r10, $r10, $r11 ; nop\n")
		fmt.Fprintf(&b, "  bnez $r5, inner ; nop\n")
		fmt.Fprintf(&b, "  st $r10, 0($r3) ; addi $r3, $r3, 1\n")
		fmt.Fprintf(&b, "  addi $r13, $r13, 1 ; nop\n")
		fmt.Fprintf(&b, "  bnez $r4, outer\n")
		innerBundles = 5
	}
	// Halt: spin in place.
	fmt.Fprintf(&b, "halt: goto halt\n")

	// Cycle budget: pipeline depth + per-bundle issue + one kill
	// bubble per taken branch, padded generously.
	inner := f.T
	if unroll2 {
		inner = f.T / 2
	}
	perOuter := 3 + inner*innerBundles + 3 + // issued bundles
		inner + 1 // branch bubbles (inner backedges + outer backedge)
	if unroll2 {
		perOuter = 2 + inner*innerBundles + 2 + inner + 1
	}
	cycles := 2 + f.NOut*perOuter + 16
	return b.String(), cycles
}

// CheckResults verifies the y region of a data memory against the
// expected output and returns the index of the first mismatch, or -1.
func (f *FIR) CheckResults(dmem []uint64) int {
	for i := 0; i < f.NOut; i++ {
		if dmem[int(f.YBase)+i] != f.Expect[i] {
			return i
		}
	}
	return -1
}
