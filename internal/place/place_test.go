package place

import (
	"math"
	"testing"
	"testing/quick"

	"vipipe/internal/cell"
	"vipipe/internal/netlist"
	"vipipe/internal/rtl"
	"vipipe/internal/vex"
)

// chainNetlist builds k inverter chains of length m, mutually
// unconnected: an easy clustering target.
func chainNetlist(k, m int) *netlist.Netlist {
	b := netlist.NewBuilder("chains", cell.Default65nm())
	for c := 0; c < k; c++ {
		n := b.NL.AddPI("in")
		for i := 0; i < m; i++ {
			n = b.Not(n)
		}
		b.Output(n)
	}
	return b.NL
}

func TestGlobalPlacesAllCellsOnGrid(t *testing.T) {
	nl := chainNetlist(8, 40)
	p, err := Global(nl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Rows < 2 {
		t.Errorf("rows = %d", p.Rows)
	}
}

func TestGlobalBeatsRandomHPWL(t *testing.T) {
	nl := chainNetlist(10, 50)
	pg, err := Global(nl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pr, err := Random(nl, 0.7, 1)
	if err != nil {
		t.Fatal(err)
	}
	hg, hr := pg.HPWL(), pr.HPWL()
	if hg >= hr {
		t.Errorf("min-cut HPWL %.0f not better than random %.0f", hg, hr)
	}
	// A min-cut placement of independent chains should be far
	// better, not marginally.
	if hg > 0.7*hr {
		t.Errorf("min-cut HPWL %.0f only %.0f%% of random — too weak", hg, 100*hg/hr)
	}
}

func TestPlacementDeterminism(t *testing.T) {
	nl := chainNetlist(4, 30)
	p1, err := Global(nl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Global(nl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1.X {
		if p1.X[i] != p2.X[i] || p1.Y[i] != p2.Y[i] {
			t.Fatalf("placement not deterministic at cell %d", i)
		}
	}
}

func TestUtilizationSetsDieArea(t *testing.T) {
	nl := chainNetlist(4, 25)
	cellArea := nl.Stats().AreaUM2
	for _, util := range []float64{0.5, 0.7, 0.9} {
		opts := DefaultOptions()
		opts.Utilization = util
		p, err := Global(nl, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := cellArea / (p.DieW * p.DieH)
		if math.Abs(got-util) > 0.08 {
			t.Errorf("util %g: achieved %g", util, got)
		}
	}
}

func TestBadOptionsRejected(t *testing.T) {
	nl := chainNetlist(1, 5)
	if _, err := Global(nl, Options{Utilization: 0, FMPasses: 1, MinRegion: 4}); err == nil {
		t.Error("zero utilization accepted")
	}
	if _, err := Global(nl, Options{Utilization: 0.7, FMPasses: -1, MinRegion: 4}); err == nil {
		t.Error("negative FM passes accepted")
	}
	if _, err := Global(netlist.New("empty", cell.Default65nm()), DefaultOptions()); err == nil {
		t.Error("empty netlist accepted")
	}
}

func TestNetHPWLGeometry(t *testing.T) {
	b := netlist.NewBuilder("t", cell.Default65nm())
	a := b.NL.AddPI("a")
	x := b.Not(a)
	y := b.Not(x)
	_ = y
	nl := b.NL
	p, err := Random(nl, 0.7, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Place the two inverters at known positions.
	p.X[0], p.Y[0] = 0, 0
	p.X[1], p.Y[1] = 10, p.RowHeight*3
	// Net x connects inv0 (driver) and inv1 (sink).
	got := p.NetHPWL(x)
	want := math.Abs((10+p.W[1]/2)-(0+p.W[0]/2)) + 3*p.RowHeight
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("HPWL = %g, want %g", got, want)
	}
	// Single-pin nets (PI feeding one cell counts two pins; the
	// output of inv1 has one pin) have zero length.
	if p.NetHPWL(nl.Insts[1].Out) != 0 {
		t.Error("dangling net should have zero HPWL")
	}
}

func TestDensityMapSumsToUtilization(t *testing.T) {
	nl := chainNetlist(6, 30)
	p, err := Global(nl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	grid := p.DensityMap(4, 4)
	sum := 0.0
	for _, row := range grid {
		for _, v := range row {
			sum += v
		}
	}
	// Sum of bin utilization * bin area = total cell area.
	binArea := (p.DieW / 4) * (p.DieH / 4)
	cellArea := nl.Stats().AreaUM2
	if math.Abs(sum*binArea-cellArea) > cellArea*0.01 {
		t.Errorf("density mass %g != cell area %g", sum*binArea, cellArea)
	}
}

func TestInsertAtAndExtend(t *testing.T) {
	nl := chainNetlist(2, 10)
	p, err := Global(nl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Add a buffer instance post-placement.
	newOut := nl.AddInst(cell.Buf, "ls1", netlist.StageNone, "ls", nl.Insts[0].Out)
	_ = newOut
	id := nl.NumCells() - 1
	p.InsertAt(id, p.DieW/2, p.DieH/2)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Clamping: far outside coordinates land inside the die.
	p.InsertAt(id, -50, 1e9)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMinCutClustersConnectedLogic(t *testing.T) {
	// Two independent adders: each adder's cells should end up
	// spatially compact relative to die size.
	b := netlist.NewBuilder("t", cell.Default65nm())
	for i := 0; i < 2; i++ {
		x := b.InputWord("x", 16)
		y := b.InputWord("y", 16)
		s, _ := rtl.RippleAdder(b, x, y, b.Const(false))
		b.OutputWord(s)
	}
	p, err := Global(b.NL, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Average net length should be a small fraction of die extent.
	nets := 0
	total := 0.0
	for i := range b.NL.Nets {
		if l := p.NetHPWL(i); l > 0 {
			nets++
			total += l
		}
	}
	avg := total / float64(nets)
	if avg > (p.DieW+p.DieH)/4 {
		t.Errorf("average net %.2f too long for die %.2fx%.2f", avg, p.DieW, p.DieH)
	}
}

func TestVexCorePlacementInterleavesStages(t *testing.T) {
	core, err := vex.Build(vex.SmallConfig(), cell.Default65nm())
	if err != nil {
		t.Fatal(err)
	}
	p, err := Global(core.NL, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// The paper's observation: performance-driven placement
	// interleaves stages. Check that the execute-stage bounding box
	// overlaps the decode-stage bounding box substantially.
	bbox := func(stage netlist.Stage) (x0, y0, x1, y1 float64) {
		x0, y0 = math.Inf(1), math.Inf(1)
		x1, y1 = math.Inf(-1), math.Inf(-1)
		for i := range core.NL.Insts {
			if core.NL.Insts[i].Stage != stage {
				continue
			}
			x, y := p.Center(i)
			x0, x1 = math.Min(x0, x), math.Max(x1, x)
			y0, y1 = math.Min(y0, y), math.Max(y1, y)
		}
		return
	}
	ex0, ey0, ex1, ey1 := bbox(netlist.StageExecute)
	dx0, dy0, dx1, dy1 := bbox(netlist.StageDecode)
	ix := math.Min(ex1, dx1) - math.Max(ex0, dx0)
	iy := math.Min(ey1, dy1) - math.Max(ey0, dy0)
	if ix <= 0 || iy <= 0 {
		t.Error("execute and decode stages do not overlap at all — placement is stage-segregated")
	}
}

// Property: FM bisection keeps both halves within the balance bounds
// and never loses cells.
func TestPartitionBalanceProperty(t *testing.T) {
	f := func(seed int64, k, m uint8) bool {
		nk := 2 + int(k%6)
		nm := 5 + int(m%40)
		nl := chainNetlist(nk, nm)
		opts := DefaultOptions()
		opts.Seed = seed
		g := &placer{p: mustNew(nl), opts: opts, rng: newStream(seed)}
		all := make([]int, nl.NumCells())
		for i := range all {
			all[i] = i
		}
		left, right := g.partition(all)
		if len(left)+len(right) != len(all) {
			return false
		}
		if len(left) == 0 || len(right) == 0 {
			return false
		}
		area := func(set []int) float64 {
			a := 0.0
			for _, c := range set {
				a += g.p.W[c]
			}
			return a
		}
		la, ra := area(left), area(right)
		total := la + ra
		// Generous bound: the 45/55 target plus slack for the
		// degenerate-guard midpoint split.
		return la >= 0.3*total && ra >= 0.3*total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Independent chains have zero min-cut: FM should find a partition
// with no cut nets at the top level.
func TestPartitionFindsZeroCut(t *testing.T) {
	nl := chainNetlist(2, 60) // two equal chains
	opts := DefaultOptions()
	g := &placer{p: mustNew(nl), opts: opts, rng: newStream(1)}
	all := make([]int, nl.NumCells())
	for i := range all {
		all[i] = i
	}
	left, right := g.partition(all)
	side := make(map[int]int)
	for _, c := range left {
		side[c] = 0
	}
	for _, c := range right {
		side[c] = 1
	}
	cut := 0
	for n := range nl.Nets {
		net := &nl.Nets[n]
		if net.Driver < 0 {
			continue
		}
		for _, s := range net.Sinks {
			if side[s.Inst] != side[net.Driver] {
				cut++
			}
		}
	}
	if cut != 0 {
		t.Errorf("two independent chains partitioned with %d cut pins", cut)
	}
}

// TestGlobalGolden pins the placement bits: every downstream number
// (timing, islands, shifters, power, every cached artifact) starts
// from these coordinates, so a placer change that moves a single cell
// must fail here.
func TestGlobalGolden(t *testing.T) {
	golden := []struct {
		name string
		cfg  vex.Config
		seed int64
		want string
	}{
		{"small/seed1", vex.SmallConfig(), 1, "4703fb7e0d119c2b5a8102a168a98327756caaa168d81cfa9cfe8c62faa49c58"},
		{"small/seed2", vex.SmallConfig(), 2, "00d14bce2bf6ae53a4ea56b19d89be1d899d64436ae94058d2a96dd2f6d0dcb4"},
		{"small/seed3", vex.SmallConfig(), 3, "20b1ae15a57d8e304e5c43e41b121eea039b99f4f86f5361dd14e1a9e3531865"},
		{"full/seed1", vex.DefaultConfig(), 1, "2773714ae687034f8a39baefbd319a68918d2c379eba7f63c9afb822195f50ed"},
	}
	for _, g := range golden {
		t.Run(g.name, func(t *testing.T) {
			if testing.Short() && g.cfg == vex.DefaultConfig() {
				t.Skip("full core in -short mode")
			}
			opts := DefaultOptions()
			opts.Seed = g.seed
			p, err := Global(vexNetlist(t, g.cfg), opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := placementDigest(p); got != g.want {
				t.Errorf("placement digest %s, want %s", got, g.want)
			}
		})
	}
}

// BenchmarkGlobal times one whole global placement of the small and
// the full VEX core at the default options.
func BenchmarkGlobal(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  vex.Config
	}{{"small", vex.SmallConfig()}, {"full", vex.DefaultConfig()}} {
		b.Run(c.name, func(b *testing.B) {
			nl := vexNetlist(b, c.cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Global(nl, DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
