// Package place provides the physical-design substrate of the flow: a
// die/row floorplan, a recursive min-cut global placer (a stand-in for
// Physical Compiler's coarse placement), half-perimeter wirelength and
// cell-density metrics, and incremental placement used when level
// shifters are spliced into a finished placement.
//
// The placer is performance-driven in the min-cut sense: strongly
// connected logic lands close together, which interleaves cells from
// different pipeline stages across the floorplan — exactly the
// situation the paper observes ("the performance-driven placement
// optimization has led to a distribution and interleaving across the
// floorplan of cells belonging to different pipeline stages") and the
// reason its voltage islands are generated from physical proximity
// alone.
package place

import (
	"fmt"
	"math"

	"vipipe/internal/flowerr"
	"vipipe/internal/netlist"
	"vipipe/internal/stats"
)

// Options controls global placement.
type Options struct {
	Utilization float64 // row utilization target (paper: about 0.70)
	Seed        int64   // RNG seed for initial partitions
	FMPasses    int     // Fiduccia-Mattheyses passes per bisection
	MinRegion   int     // stop recursing below this many cells
	MaxFanout   int     // nets with more pins than this are ignored in cut costs
}

// DefaultOptions mirrors the paper's physical setup.
func DefaultOptions() Options {
	return Options{Utilization: 0.70, Seed: 1, FMPasses: 12, MinRegion: 12, MaxFanout: 64}
}

// Placement is a placed netlist: one (x, y) per instance, in microns,
// on a row grid.
type Placement struct {
	NL   *netlist.Netlist
	X, Y []float64 // cell origins
	W    []float64 // cell widths (area / row height)

	DieW, DieH float64
	RowHeight  float64
	Rows       int
	Util       float64
}

// Global runs recursive min-cut bisection placement.
func Global(nl *netlist.Netlist, opts Options) (*Placement, error) {
	p, err := newPlacement(nl, opts.Utilization)
	if err != nil {
		return nil, err
	}
	if opts.FMPasses < 0 || opts.MinRegion < 1 {
		return nil, flowerr.BadInputf("place: bad options %+v", opts)
	}
	g := &placer{p: p, opts: opts, rng: stats.DeriveStream(opts.Seed, "place")}
	all := make([]int, nl.NumCells())
	for i := range all {
		all[i] = i
	}
	g.bisect(all, region{0, 0, p.DieW, p.DieH}, true)
	p.snapToRows()
	return p, nil
}

// Random places cells uniformly at random on the row grid: the
// placement-quality baseline for the ablation benchmarks.
func Random(nl *netlist.Netlist, util float64, seed int64) (*Placement, error) {
	p, err := newPlacement(nl, util)
	if err != nil {
		return nil, err
	}
	rng := stats.DeriveStream(seed, "place-random")
	for i := range p.X {
		p.X[i] = rng.Float64() * (p.DieW - p.W[i])
		p.Y[i] = float64(rng.Intn(p.Rows)) * p.RowHeight
	}
	return p, nil
}

func newPlacement(nl *netlist.Netlist, util float64) (*Placement, error) {
	if nl.NumCells() == 0 {
		return nil, flowerr.BadInputf("place: empty netlist")
	}
	if util <= 0.05 || util > 1 {
		return nil, flowerr.BadInputf("place: utilization %g out of (0.05, 1]", util)
	}
	tech := nl.Lib.Tech
	total := 0.0
	w := make([]float64, nl.NumCells())
	for i := range w {
		a := nl.Cell(i).AreaUM2
		total += a
		w[i] = a / tech.RowHeightUM
	}
	dieArea := total / util
	side := math.Sqrt(dieArea)
	rows := int(math.Ceil(side / tech.RowHeightUM))
	if rows < 1 {
		rows = 1
	}
	dieH := float64(rows) * tech.RowHeightUM
	dieW := dieArea / dieH
	return &Placement{
		NL:        nl,
		X:         make([]float64, nl.NumCells()),
		Y:         make([]float64, nl.NumCells()),
		W:         w,
		DieW:      dieW,
		DieH:      dieH,
		RowHeight: tech.RowHeightUM,
		Rows:      rows,
		Util:      util,
	}, nil
}

type region struct{ x, y, w, h float64 }

type placer struct {
	p    *Placement
	opts Options
	rng  *stats.Stream
	fm   fmScratch
}

// bisect recursively splits cells into two area-balanced halves with
// small net cut and assigns each half a sub-rectangle.
func (g *placer) bisect(cells []int, r region, vertical bool) {
	if len(cells) <= g.opts.MinRegion {
		g.placeLeaf(cells, r)
		return
	}
	left, right := g.partition(cells)
	areaOf := func(set []int) float64 {
		a := 0.0
		for _, c := range set {
			a += g.p.W[c]
		}
		return a
	}
	la, ra := areaOf(left), areaOf(right)
	frac := 0.5
	if la+ra > 0 {
		frac = la / (la + ra)
	}
	if vertical {
		lw := r.w * frac
		g.bisect(left, region{r.x, r.y, lw, r.h}, false)
		g.bisect(right, region{r.x + lw, r.y, r.w - lw, r.h}, false)
	} else {
		lh := r.h * frac
		g.bisect(left, region{r.x, r.y, r.w, lh}, true)
		g.bisect(right, region{r.x, r.y + lh, r.w, r.h - lh}, true)
	}
}

// placeLeaf packs a handful of cells row by row inside a rectangle.
func (g *placer) placeLeaf(cells []int, r region) {
	x, y := r.x, r.y
	for _, c := range cells {
		if x+g.p.W[c] > r.x+r.w+1e-9 && x > r.x {
			x = r.x
			y += g.p.RowHeight
		}
		g.p.X[c] = x
		g.p.Y[c] = y
		x += g.p.W[c]
	}
}

// snapToRows aligns all y coordinates to the row grid and clamps cells
// into the die.
func (p *Placement) snapToRows() {
	for i := range p.Y {
		row := int(math.Round(p.Y[i] / p.RowHeight))
		if row < 0 {
			row = 0
		}
		if row >= p.Rows {
			row = p.Rows - 1
		}
		p.Y[i] = float64(row) * p.RowHeight
		if p.X[i] < 0 {
			p.X[i] = 0
		}
		if p.X[i] > p.DieW-p.W[i] {
			p.X[i] = math.Max(0, p.DieW-p.W[i])
		}
	}
}

// Extend grows the coordinate arrays after instances were added to the
// netlist (e.g. level shifters); new cells start unplaced at (0,0).
func (p *Placement) Extend() {
	for len(p.X) < p.NL.NumCells() {
		i := len(p.X)
		p.X = append(p.X, 0)
		p.Y = append(p.Y, 0)
		p.W = append(p.W, p.NL.Cell(i).AreaUM2/p.RowHeight)
	}
}

// InsertAt places instance id at the given coordinates, snapped to the
// row grid and clamped to the die: the incremental-placement step for
// cells added after global placement.
func (p *Placement) InsertAt(id int, x, y float64) {
	p.Extend()
	row := int(math.Round(y / p.RowHeight))
	if row < 0 {
		row = 0
	}
	if row >= p.Rows {
		row = p.Rows - 1
	}
	p.X[id] = math.Max(0, math.Min(x, p.DieW-p.W[id]))
	p.Y[id] = float64(row) * p.RowHeight
}

// Validate checks that every cell lies inside the die on a row.
func (p *Placement) Validate() error {
	if len(p.X) != p.NL.NumCells() {
		return flowerr.BadInputf("place: %d coordinates for %d cells", len(p.X), p.NL.NumCells())
	}
	for i := range p.X {
		// NaN fails every ordered comparison below, so reject
		// non-finite coordinates explicitly.
		if math.IsNaN(p.X[i]) || math.IsNaN(p.Y[i]) || math.IsInf(p.X[i], 0) || math.IsInf(p.Y[i], 0) {
			return flowerr.BadInputf("place: cell %d at non-finite (%g, %g)", i, p.X[i], p.Y[i])
		}
		if p.X[i] < -1e-6 || p.X[i]+p.W[i] > p.DieW+1e-3 {
			return flowerr.BadInputf("place: cell %d x=%g w=%g outside die width %g", i, p.X[i], p.W[i], p.DieW)
		}
		if p.Y[i] < -1e-6 || p.Y[i] > p.DieH-p.RowHeight+1e-3 {
			return flowerr.BadInputf("place: cell %d y=%g outside die height %g", i, p.Y[i], p.DieH)
		}
		r := p.Y[i] / p.RowHeight
		if math.Abs(r-math.Round(r)) > 1e-6 {
			return flowerr.BadInputf("place: cell %d not row-aligned (y=%g)", i, p.Y[i])
		}
	}
	return nil
}

// NetHPWL returns the half-perimeter wirelength of one net, measured
// between cell centers; nets with fewer than two placed pins have zero
// length.
func (p *Placement) NetHPWL(netID int) float64 {
	net := &p.NL.Nets[netID]
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	pins := 0
	add := func(inst int) {
		cx := p.X[inst] + p.W[inst]/2
		cy := p.Y[inst] + p.RowHeight/2
		minX, maxX = math.Min(minX, cx), math.Max(maxX, cx)
		minY, maxY = math.Min(minY, cy), math.Max(maxY, cy)
		pins++
	}
	if net.Driver != netlist.NoInst {
		add(net.Driver)
	}
	for _, s := range net.Sinks {
		add(s.Inst)
	}
	if pins < 2 {
		return 0
	}
	return (maxX - minX) + (maxY - minY)
}

// HPWL returns the total half-perimeter wirelength.
func (p *Placement) HPWL() float64 {
	total := 0.0
	for i := range p.NL.Nets {
		total += p.NetHPWL(i)
	}
	return total
}

// DensityMap bins cell area into an nx-by-ny grid and returns the
// utilization of each bin; the VI generator uses it to pick the slice
// growth side.
func (p *Placement) DensityMap(nx, ny int) [][]float64 {
	if nx < 1 || ny < 1 {
		panic(fmt.Sprintf("place: density grid %dx%d", nx, ny))
	}
	grid := make([][]float64, ny)
	for j := range grid {
		grid[j] = make([]float64, nx)
	}
	bw, bh := p.DieW/float64(nx), p.DieH/float64(ny)
	for i := range p.X {
		cx := p.X[i] + p.W[i]/2
		cy := p.Y[i] + p.RowHeight/2
		bx := int(cx / bw)
		by := int(cy / bh)
		if bx < 0 {
			bx = 0
		}
		if bx >= nx {
			bx = nx - 1
		}
		if by < 0 {
			by = 0
		}
		if by >= ny {
			by = ny - 1
		}
		grid[by][bx] += p.W[i] * p.RowHeight
	}
	binArea := bw * bh
	for j := range grid {
		for i := range grid[j] {
			grid[j][i] /= binArea
		}
	}
	return grid
}

// Center returns the center coordinates of instance i.
func (p *Placement) Center(i int) (x, y float64) {
	return p.X[i] + p.W[i]/2, p.Y[i] + p.RowHeight/2
}
