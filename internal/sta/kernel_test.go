package sta

import (
	"math"
	"math/rand"
	"testing"

	"vipipe/internal/cell"
	"vipipe/internal/place"
	"vipipe/internal/vex"
)

// coreAnalyzer builds the small VEX core — reconvergent comb logic,
// several pipe stages, tie cells — the shape that exercises every
// kernel branch.
func coreAnalyzer(t testing.TB) *Analyzer {
	t.Helper()
	core, err := vex.Build(vex.SmallConfig(), cell.Default65nm())
	if err != nil {
		t.Fatal(err)
	}
	p, err := place.Global(core.NL, place.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(core.NL, p)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func randScale(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 0.8 + 0.5*rng.Float64()
	}
	return s
}

// TestKernelMatchesAnalyzer locks the bit-identity contract: for any
// scale vector and clock, Kernel.Run returns exactly Report.CritPS.
func TestKernelMatchesAnalyzer(t *testing.T) {
	a := coreAnalyzer(t)
	k := NewKernel(a)
	n := k.NumCells()
	clock := a.Run(1e9, nil).CritPS * 1.001
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		scale := randScale(rng, n)
		c := clock * (0.9 + 0.2*rng.Float64())
		want := a.Run(c, scale).CritPS
		got := k.Run(c, scale)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: kernel %v != analyzer %v", trial, got, want)
		}
	}
}

// TestKernelUnitScale checks the all-ones vector reproduces the
// analyzer's nil-scale (nominal) analysis bit for bit.
func TestKernelUnitScale(t *testing.T) {
	a := coreAnalyzer(t)
	k := NewKernel(a)
	ones := make([]float64, k.NumCells())
	for i := range ones {
		ones[i] = 1
	}
	want := a.Run(5000, nil).CritPS
	got := k.Run(5000, ones)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("kernel %v != nominal analyzer %v", got, want)
	}
}

// TestRerunMatchesFullRun drives the incremental path through rounds
// of sparse perturbations — including sequential cells, whose outputs
// relaunch, and random comb subsets — and demands each Rerun match a
// from-scratch Run with the same cumulative scale vector, bitwise.
func TestRerunMatchesFullRun(t *testing.T) {
	a := coreAnalyzer(t)
	k := NewKernel(a)
	ref := NewKernel(a) // fresh kernel for full-run comparison
	n := k.NumCells()
	clock := a.Run(1e9, nil).CritPS * 1.001
	rng := rand.New(rand.NewSource(13))

	scale := randScale(rng, n)
	k.Run(clock, scale)
	for round := 0; round < 30; round++ {
		m := 1 + rng.Intn(8)
		dirty := make([]int, 0, m)
		seen := make(map[int]bool, m)
		for len(dirty) < m {
			i := rng.Intn(n)
			if seen[i] {
				continue
			}
			seen[i] = true
			dirty = append(dirty, i)
			scale[i] = 0.8 + 0.5*rng.Float64()
		}
		got := k.Rerun(clock, scale, dirty)
		want := ref.Run(clock, scale)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("round %d (%d dirty): rerun %v != full %v", round, m, got, want)
		}
	}
}

// TestKernelZeroAlloc holds Run, Rerun and RunFrame to the kernel's
// zero-allocation contract.
func TestKernelZeroAlloc(t *testing.T) {
	a := coreAnalyzer(t)
	k := NewKernel(a)
	n := k.NumCells()
	rng := rand.New(rand.NewSource(17))
	base := randScale(rng, n)
	ov := append([]float64(nil), base...)
	dirty := []int{0, n / 3, n / 2, n - 1}
	for _, i := range dirty {
		ov[i] *= 1.05
	}
	clock := a.Run(1e9, nil).CritPS
	frame := &Frame{}
	flip := false
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"Run", func() { k.Run(clock, base) }},
		// Rerun follows Run's retained state; alternating the disc on
		// and off makes every call re-time it.
		{"Rerun", func() {
			if flip = !flip; flip {
				k.Rerun(clock, ov, dirty)
			} else {
				k.Rerun(clock, base, dirty)
			}
		}},
		{"RunFrame", func() { k.RunFrame(frame, clock, base) }},
	} {
		if allocs := testing.AllocsPerRun(20, c.fn); allocs != 0 {
			t.Errorf("Kernel.%s allocates %v times per call", c.name, allocs)
		}
	}
}

// kernelBench is the state the kernel benchmarks share: a kernel over
// the small core, a random scale vector, the same vector with a
// four-cell disc perturbed, and a clock at the nominal critical path.
type kernelBench struct {
	k        *Kernel
	base, ov []float64
	dirty    []int
	clock    float64
}

func newKernelBench(b *testing.B) *kernelBench {
	a := coreAnalyzer(b)
	k := NewKernel(a)
	n := k.NumCells()
	base := randScale(rand.New(rand.NewSource(17)), n)
	ov := append([]float64(nil), base...)
	dirty := []int{0, n / 3, n / 2, n - 1}
	for _, i := range dirty {
		ov[i] *= 1.05
	}
	return &kernelBench{k: k, base: base, ov: ov, dirty: dirty, clock: a.Run(1e9, nil).CritPS}
}

// BenchmarkKernelRun is one full propagation and critical-path
// reduction: the per-sample kernel cost of a yield shard.
func BenchmarkKernelRun(b *testing.B) {
	kb := newKernelBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kb.k.Run(kb.clock, kb.base)
	}
}

// BenchmarkKernelRunFrame is one full propagation with the per-stage
// endpoint frame: the per-sample kernel cost of mc.Run.
func BenchmarkKernelRunFrame(b *testing.B) {
	kb := newKernelBench(b)
	frame := &Frame{}
	kb.k.RunFrame(frame, kb.clock, kb.base)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kb.k.RunFrame(frame, kb.clock, kb.base)
	}
}

// BenchmarkKernelRerun is one incremental re-time of a four-cell disc,
// alternated on and off so every call re-times it: the overlay cost of
// a yield shard sample.
func BenchmarkKernelRerun(b *testing.B) {
	kb := newKernelBench(b)
	kb.k.Run(kb.clock, kb.base)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			kb.k.Rerun(kb.clock, kb.ov, kb.dirty)
		} else {
			kb.k.Rerun(kb.clock, kb.base, kb.dirty)
		}
	}
}

// TestRerunNoChange verifies an empty dirty set (or one whose scales
// did not actually move) returns the retained critical path unchanged.
func TestRerunNoChange(t *testing.T) {
	a := coreAnalyzer(t)
	k := NewKernel(a)
	n := k.NumCells()
	rng := rand.New(rand.NewSource(3))
	scale := randScale(rng, n)
	clock := a.Run(1e9, nil).CritPS
	base := k.Run(clock, scale)
	if got := k.Rerun(clock, scale, nil); math.Float64bits(got) != math.Float64bits(base) {
		t.Fatalf("empty rerun %v != base %v", got, base)
	}
	if got := k.Rerun(clock, scale, []int{0, n / 2, n - 1}); math.Float64bits(got) != math.Float64bits(base) {
		t.Fatalf("no-op rerun %v != base %v", got, base)
	}
}
