package vexsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"vipipe/internal/cell"
	"vipipe/internal/vex"
)

// firTestbench builds the core, the FIR program and a testbench over
// them, ready to Run(fir.Cycles).
func firTestbench(tb testing.TB, cfg vex.Config, n, taps int, seed int64) (*Testbench, *FIR) {
	tb.Helper()
	core, err := vex.Build(cfg, cell.Default65nm())
	if err != nil {
		tb.Fatal(err)
	}
	fir, err := NewFIR(cfg, n, taps, seed)
	if err != nil {
		tb.Fatal(err)
	}
	bench, err := NewTestbench(core, fir.Prog, fir.DMem)
	if err != nil {
		tb.Fatal(err)
	}
	return bench, fir
}

// activityDigest is the SHA-256 of every net's activity float64 bits,
// then every final data-memory word, both little-endian, in net and
// word order.
func activityDigest(act []float64, dmem []uint64) string {
	h := sha256.New()
	var buf [8]byte
	for _, a := range act {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(a))
		h.Write(buf[:])
	}
	for _, w := range dmem {
		binary.LittleEndian.PutUint64(buf[:], w)
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFIRActivityGolden pins the bits the power model consumes: the
// per-net switching activity and the final data memory of the FIR
// co-simulation, for the flow's small core (TestConfig: 12 samples x
// 4 taps) at three seeds and its full core (DefaultConfig: 48 x 8) at
// seed 1. The simulator is deterministic, so any change to evaluation
// order, toggle counting or memory servicing shows up here before it
// moves a power report.
func TestFIRActivityGolden(t *testing.T) {
	cases := []struct {
		name       string
		full       bool
		cfg        vex.Config
		n, taps    int
		seed       int64
		wantHash   string
		wantCycles int
		wantNets   int
	}{
		{"small-seed1", false, vex.SmallConfig(), 12, 4, 1, "4bf1de93b5763dd58eb0a79be58046057361546c24f0d5270dce2bff52a73b25", 297, 2795},
		{"small-seed2", false, vex.SmallConfig(), 12, 4, 2, "eca9474e8cd4dce0e21765a3721524d7e169c67a8be8909f0e2c23eaaff157d6", 297, 2795},
		{"small-seed3", false, vex.SmallConfig(), 12, 4, 3, "a3805a7b6ae3c49be2acf6d34899d602ada8bd47b700425c2c47c7738ecf88eb", 297, 2795},
		{"full-seed1", true, vex.DefaultConfig(), 48, 8, 1, "25cd379dcec2e984f45e94ed5c319546d7efdc46c6554cbb64bf9ec3b9996428", 1207, 29889},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.full && testing.Short() {
				t.Skip("full-size core co-simulation")
			}
			bench, fir := firTestbench(t, c.cfg, c.n, c.taps, c.seed)
			run(t, bench, fir.Cycles)
			if fir.Cycles != c.wantCycles {
				t.Errorf("cycles = %d, want %d", fir.Cycles, c.wantCycles)
			}
			act := bench.Activity()
			if len(act) != c.wantNets {
				t.Errorf("nets = %d, want %d", len(act), c.wantNets)
			}
			if got := activityDigest(act, bench.DMem); got != c.wantHash {
				t.Errorf("digest = %s, want %s", got, c.wantHash)
			}
		})
	}
}

// BenchmarkTestbenchFIR times one whole FIR co-simulation, testbench
// construction excluded: the flow's small core (12 samples x 4 taps,
// 297 cycles) and its full core (48 x 8, 1,207 cycles).
func BenchmarkTestbenchFIR(b *testing.B) {
	for _, c := range []struct {
		name    string
		cfg     vex.Config
		n, taps int
	}{
		{"small", vex.SmallConfig(), 12, 4},
		{"full", vex.DefaultConfig(), 48, 8},
	} {
		b.Run(c.name, func(b *testing.B) {
			first, fir := firTestbench(b, c.cfg, c.n, c.taps, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				bench, err := NewTestbench(first.Core, fir.Prog, fir.DMem)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				run(b, bench, fir.Cycles)
			}
		})
	}
}
