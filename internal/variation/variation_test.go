package variation

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"testing"

	"vipipe/internal/cell"
	"vipipe/internal/netlist"
	"vipipe/internal/place"
	"vipipe/internal/stats"
	"vipipe/internal/vex"
)

func TestSystematicRangeIsCalibrated(t *testing.T) {
	m := Default()
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i <= 100; i++ {
		for j := 0; j <= 100; j++ {
			f := m.SystematicFrac(float64(i)/100*m.ChipMM, float64(j)/100*m.ChipMM)
			lo = math.Min(lo, f)
			hi = math.Max(hi, f)
		}
	}
	// Paper: maximum systematic deviations of +/-5.5%.
	if math.Abs(hi-0.055) > 0.002 {
		t.Errorf("max systematic %g, want ~+0.055", hi)
	}
	if math.Abs(lo+0.055) > 0.002 {
		t.Errorf("min systematic %g, want ~-0.055", lo)
	}
}

func TestCornerOrdering(t *testing.T) {
	m := Default()
	// Lower-left (A) must be the slow corner (longest Lgate), the
	// upper-right the fastest (Fig. 2).
	a := m.SystematicFrac(0, 0)
	d := m.SystematicFrac(m.ChipMM, m.ChipMM)
	if a <= 0 {
		t.Errorf("corner A deviation %g should be positive (slow)", a)
	}
	if d >= 0 {
		t.Errorf("upper-right deviation %g should be negative (fast)", d)
	}
	// Monotone decrease along the diagonal.
	prev := math.Inf(1)
	for i := 0; i <= 10; i++ {
		v := m.SystematicFrac(float64(i)/10*m.ChipMM, float64(i)/10*m.ChipMM)
		if v >= prev {
			t.Fatalf("diagonal not monotone at step %d: %g >= %g", i, v, prev)
		}
		prev = v
	}
}

func TestSystematicLgateNM(t *testing.T) {
	m := Default()
	if got := m.SystematicLgateNM(0, 0); math.Abs(got-65*1.055) > 0.2 {
		t.Errorf("Lgate at A = %g, want ~%g", got, 65*1.055)
	}
	// Out-of-chip coordinates clamp.
	if m.SystematicLgateNM(-5, -5) != m.SystematicLgateNM(0, 0) {
		t.Error("coordinates should clamp to the chip")
	}
}

func TestRndSigma(t *testing.T) {
	m := Default()
	if math.Abs(m.RndSigmaNM()-65*0.065/3) > 1e-12 {
		t.Errorf("random sigma = %g", m.RndSigmaNM())
	}
}

func TestMapGridShapeAndRange(t *testing.T) {
	m := Default()
	g := m.MapGrid(50)
	if len(g) != 50 || len(g[0]) != 50 {
		t.Fatal("grid shape wrong")
	}
	// Bottom-left corner of the grid is the slow corner.
	if g[0][0] <= g[49][49] {
		t.Error("grid orientation wrong")
	}
}

func TestDiagonalPositionsOrdered(t *testing.T) {
	m := Default()
	ps := m.DiagonalPositions()
	if len(ps) != 4 || ps[0].Name != "A" || ps[3].Name != "D" {
		t.Fatalf("positions: %+v", ps)
	}
	prev := -1.0
	for _, p := range ps {
		if p.XMM <= prev || p.XMM != p.YMM {
			t.Errorf("position %s not on increasing diagonal", p.Name)
		}
		prev = p.XMM
	}
	// Severity must decrease from A to D.
	for i := 1; i < len(ps); i++ {
		if m.SystematicFrac(ps[i].XMM, ps[i].YMM) >= m.SystematicFrac(ps[i-1].XMM, ps[i-1].YMM) {
			t.Errorf("severity not decreasing at %s", ps[i].Name)
		}
	}
}

func testPlacement(t *testing.T) *place.Placement {
	t.Helper()
	b := netlist.NewBuilder("v", cell.Default65nm())
	x := b.Input("x")
	n := x
	for i := 0; i < 200; i++ {
		n = b.Not(n)
	}
	b.DFF(n)
	p, err := place.Global(b.NL, place.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSampleChipStatistics(t *testing.T) {
	m := Default()
	pl := testPlacement(t)
	rng := stats.NewStream(3)
	lg := m.SampleChip(pl, Pos{Name: "A"}, rng)
	if len(lg) != pl.NL.NumCells() {
		t.Fatal("sample size wrong")
	}
	s := stats.Summarize(lg)
	// At point A the core is tiny (~0.3mm) relative to the chip, so
	// all cells see roughly the corner systematic value +5.5%, plus
	// N(0, 1.41nm) randomness.
	if math.Abs(s.Mean-65*1.055) > 0.5 {
		t.Errorf("mean Lgate %g, want ~%g", s.Mean, 65*1.055)
	}
	if math.Abs(s.StdDev-m.RndSigmaNM()) > 0.35 {
		t.Errorf("stddev %g, want ~%g", s.StdDev, m.RndSigmaNM())
	}
}

func TestSampleChipPositionShift(t *testing.T) {
	m := Default()
	pl := testPlacement(t)
	lgA := m.SampleChip(pl, Pos{Name: "A"}, stats.NewStream(3))
	lgD := m.SampleChip(pl, Pos{Name: "D", XMM: 0.7 * m.ChipMM, YMM: 0.7 * m.ChipMM}, stats.NewStream(3))
	if stats.Mean(lgA) <= stats.Mean(lgD) {
		t.Error("point A should have longer (slower) gates than D")
	}
}

func TestSampleChipDeterminism(t *testing.T) {
	m := Default()
	pl := testPlacement(t)
	a := m.SampleChip(pl, Pos{}, stats.NewStream(7))
	b := m.SampleChip(pl, Pos{}, stats.NewStream(7))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sampling not deterministic")
		}
	}
}

// TestSamplerMatchesSampleChip pins the Monte Carlo draw recipe: sample
// k of a Sampler (and of its forks, in any order) is bit for bit the
// chip drawn cell by cell with math/rand's own NormFloat64 from the
// source seeded by the FNV-1a hash of (seed, "mc/<pos>/<k>"), which is
// also what SampleChip draws from the stream DeriveStream(seed,
// "mc/<pos>/<k>").
func TestSamplerMatchesSampleChip(t *testing.T) {
	m := Default()
	pl := testPlacement(t)
	pos, _ := m.Position("B")
	const seed = 11
	s := m.NewSampler(pl, pos, seed)
	fork := s.Fork()
	lg := make([]float64, pl.NL.NumCells())
	sigma := m.RndSigmaNM()
	for _, k := range []int{0, 1, 7, 123, 65535, 2} {
		name := fmt.Sprintf("mc/%s/%d", pos.Name, k)
		h := fnv.New64a()
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], seed)
		h.Write(b[:])
		h.Write([]byte(name))
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		want := make([]float64, len(lg))
		for i := range want {
			cx, cy := pl.Center(i)
			// (0 + …) is Normal(0, sigma)'s sum.
			want[i] = m.SystematicLgateNM(pos.XMM+cx/1000, pos.YMM+cy/1000) + (0 + sigma*rng.NormFloat64())
		}
		chip := m.SampleChip(pl, pos, stats.DeriveStream(seed, name))
		for _, smp := range []*Sampler{s, fork} {
			smp.Draw(k, lg)
			for i := range want {
				if math.Float64bits(lg[i]) != math.Float64bits(want[i]) || math.Float64bits(chip[i]) != math.Float64bits(want[i]) {
					t.Fatalf("sample %d cell %d: Draw %v, SampleChip %v, want %v", k, i, lg[i], chip[i], want[i])
				}
			}
		}
	}
	if n := testing.AllocsPerRun(20, func() { s.Draw(99999, lg) }); n != 0 {
		t.Errorf("Sampler.Draw allocates %v times per sample", n)
	}
}

// TestSamplerForksConcurrently draws disjoint sample ranges through
// four forks at once, as mc.Run's workers do. The forks share the
// systematic map and the package-level seeding and ziggurat tables;
// their columns must equal one serial sampler's. Run under -race by
// make race.
func TestSamplerForksConcurrently(t *testing.T) {
	m := Default()
	pl := testPlacement(t)
	pos, _ := m.Position("A")
	const forks, perFork = 4, 16
	s := m.NewSampler(pl, pos, 5)
	n := pl.NL.NumCells()
	want := make([][]float64, forks*perFork)
	for k := range want {
		want[k] = make([]float64, n)
		s.Draw(k, want[k])
	}
	got := make([][]float64, len(want))
	var wg sync.WaitGroup
	for f := 0; f < forks; f++ {
		wg.Add(1)
		go func(f int, fs *Sampler) {
			defer wg.Done()
			for k := f * perFork; k < (f+1)*perFork; k++ {
				got[k] = make([]float64, n)
				fs.Draw(k, got[k])
			}
		}(f, s.Fork())
	}
	wg.Wait()
	for k := range want {
		for i := range want[k] {
			if math.Float64bits(got[k][i]) != math.Float64bits(want[k][i]) {
				t.Fatalf("sample %d cell %d: fork drew %v, serial %v", k, i, got[k][i], want[k][i])
			}
		}
	}
}

// BenchmarkSamplerDraw is the per-chip cost of Sampler.Draw: one
// stream derivation plus one normal draw per cell, on the small core
// (8-bit, 2-issue; 2,689 cells) that paper_flow, field_edit and
// daemon_mix sample, and on the full-size core (32-bit, 4-issue;
// 29,481 cells) that the field sweeps sample.
func BenchmarkSamplerDraw(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  vex.Config
	}{{"small", vex.SmallConfig()}, {"full", vex.DefaultConfig()}} {
		b.Run(c.name, func(b *testing.B) {
			core, err := vex.Build(c.cfg, cell.Default65nm())
			if err != nil {
				b.Fatal(err)
			}
			pl, err := place.Global(core.NL, place.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			m := Default()
			pos, _ := m.Position("B")
			s := m.NewSampler(pl, pos, 1)
			lg := make([]float64, pl.NL.NumCells())
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				s.Draw(k, lg)
			}
		})
	}
}

func TestDelayAndLeakScales(t *testing.T) {
	tech := cell.DefaultTech()
	lg := []float64{65, 70, 60}
	doms := []cell.Domain{cell.DomainLow, cell.DomainLow, cell.DomainHigh}
	scaler := tech.SampleScaler()
	ds := make([]float64, len(lg))
	scaler.Scale(ds, lg, nil, nil)
	if math.Abs(ds[0]-1) > 1e-12 {
		t.Errorf("nominal scale %g", ds[0])
	}
	if ds[1] <= 1 || ds[2] >= 1 {
		t.Errorf("scale direction wrong: %v", ds)
	}
	dsD := make([]float64, len(lg))
	scaler.Scale(dsD, lg, nil, doms)
	// High-Vdd domain cell must be faster than the same cell at low
	// Vdd.
	if dsD[2] >= ds[2] {
		t.Errorf("domain boost missing: %g vs %g", dsD[2], ds[2])
	}
}

func TestMapGridPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m := Default()
	m.MapGrid(1)
}
