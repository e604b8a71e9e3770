// Package vi implements the paper's contribution: placement-aware
// generation of nested voltage islands for process-variation
// compensation (Section 4.5), and level-shifter insertion with
// incremental placement (Section 4.6).
//
// Islands are produced by greedy slicing of the placed floorplan —
// vertically or horizontally, the two strategies the paper compares —
// starting from the densest side. The first slice is grown until the
// speed-up of powering it at high Vdd compensates the least severe
// violation scenario (verified by Monte Carlo SSTA at that scenario's
// chip position); the second and third islands extend the slice
// incrementally for the more severe scenarios, so that moving from one
// scenario to the next only requires raising the supply of one
// additional island.
package vi

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"vipipe/internal/cell"
	"vipipe/internal/flowerr"
	"vipipe/internal/mc"
	"vipipe/internal/netlist"
	"vipipe/internal/obs"
	"vipipe/internal/place"
	"vipipe/internal/sta"
	"vipipe/internal/variation"
)

// Strategy selects the slicing direction.
type Strategy uint8

const (
	// Vertical slices the floorplan with vertical cut lines
	// (islands are column bands), Fig. 4(a).
	Vertical Strategy = iota
	// Horizontal slices with horizontal cut lines (row bands),
	// Fig. 4(b).
	Horizontal
	// Corner grows nested L-shaped islands from the densest corner
	// of the floorplan (square boxes in normalized coordinates): an
	// implementation of the paper's future work, "the exploration of
	// further cell grouping strategies".
	Corner
)

func (s Strategy) String() string {
	switch s {
	case Vertical:
		return "vertical"
	case Horizontal:
		return "horizontal"
	default:
		return "corner"
	}
}

// ParseStrategy maps a strategy name (as produced by String) back to
// the Strategy, for CLI flags and service requests.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "vertical":
		return Vertical, nil
	case "horizontal":
		return Horizontal, nil
	case "corner":
		return Corner, nil
	}
	return 0, flowerr.BadInputf("vi: unknown strategy %q (vertical, horizontal, corner)", name)
}

// Side identifies where slice growth starts: a floorplan edge for the
// Vertical/Horizontal strategies, a corner for Corner.
type Side uint8

// Sides and corners of the floorplan.
const (
	Left Side = iota
	Right
	Bottom
	Top
	BottomLeft
	BottomRight
	TopLeft
	TopRight
)

func (s Side) String() string {
	switch s {
	case Left:
		return "left"
	case Right:
		return "right"
	case Bottom:
		return "bottom"
	case Top:
		return "top"
	case BottomLeft:
		return "bottom-left"
	case BottomRight:
		return "bottom-right"
	case TopLeft:
		return "top-left"
	default:
		return "top-right"
	}
}

// RegionNone marks cells outside every island (never raised).
const RegionNone = math.MaxInt32

// Island is one nested voltage island.
type Island struct {
	Index int   // 1-based; island k is raised for scenarios >= k severity
	Cells []int // instances exclusive to this island
	// FromUM/ToUM bound the island band along the slicing axis.
	FromUM, ToUM float64
}

// Partition is a complete voltage-island assignment of a design.
type Partition struct {
	Strategy  Strategy
	StartSide Side
	Islands   []Island
	// Region maps every instance (including level shifters added
	// later) to its island index, or RegionNone.
	Region []int32
	// Shifters lists the level-shifter instances inserted by
	// InsertShifters.
	Shifters []int

	nl           *netlist.Netlist
	shiftersDone bool
}

// NumIslands returns the number of islands generated.
func (p *Partition) NumIslands() int { return len(p.Islands) }

// Domains returns the per-instance supply assignment when islands
// 1..k are powered at high Vdd (k = the detected violation scenario;
// k = 0 leaves everything at low Vdd).
func (p *Partition) Domains(k int) []cell.Domain {
	out := make([]cell.Domain, len(p.Region))
	for i, r := range p.Region {
		if int(r) <= k {
			out[i] = cell.DomainHigh
		}
	}
	return out
}

// Options configures island generation.
type Options struct {
	Strategy Strategy
	ClockPS  float64
	Derate   []float64 // slack-recovery derates (may be nil)
	Samples  int       // Monte Carlo samples per compensation check (default 60)
	Seed     int64
	// ForceSide overrides density-driven start-side selection (for
	// the ablation study); nil = pick by density.
	ForceSide *Side
}

// The compensation search's fixed parameters.
const (
	yieldSigma  = 2.0      // required slack margin in sigmas
	granularity = 1.0 / 64 // slice-boundary resolution, as a fraction of the die extent
	maxFrac     = 1.0      // largest slice extent: the most severe scenario may boost the whole core
)

func (o *Options) setDefaults() {
	if o.Samples <= 0 {
		o.Samples = 60
	}
}

// Generate produces the nested islands for the given violation
// scenarios. scenarioPos lists the chip positions associated with the
// scenarios in increasing severity (the paper uses C, B, A: one
// position per number of violating stages). The returned partition has
// one island per scenario.
//
// Every compensation check is a Monte Carlo run under ctx, so
// cancelling it aborts the binary search within one sample's latency
// with an error matching flowerr.ErrCancelled.
func Generate(ctx context.Context, a *sta.Analyzer, model *variation.Model, scenarioPos []variation.Pos, opts Options) (*Partition, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts.setDefaults()
	if len(scenarioPos) == 0 {
		return nil, flowerr.NoScenariof("vi: no violation scenarios to compensate")
	}
	if opts.ClockPS <= 0 {
		return nil, flowerr.BadInputf("vi: clock period %g must be positive", opts.ClockPS)
	}
	nl, pl := a.NL, a.PL
	p := &Partition{
		Strategy: opts.Strategy,
		Region:   make([]int32, nl.NumCells()),
		nl:       nl,
	}
	for i := range p.Region {
		p.Region[i] = RegionNone
	}
	if opts.ForceSide != nil {
		p.StartSide = *opts.ForceSide
	} else {
		p.StartSide = pickStartSide(pl, opts.Strategy)
	}

	// axisPos returns each cell's growth-axis coordinate, measured
	// from the start side (or corner). For the Corner strategy the
	// axis is the Chebyshev distance from the corner in normalized
	// die coordinates, scaled back to microns of the larger die
	// edge, so nested thresholds carve square boxes.
	extent := pl.DieW
	switch opts.Strategy {
	case Horizontal:
		extent = pl.DieH
	case Corner:
		extent = math.Max(pl.DieW, pl.DieH)
	}
	axisPos := func(i int) float64 {
		x, y := pl.Center(i)
		switch opts.Strategy {
		case Horizontal:
			v := y
			if p.StartSide == Top {
				v = extent - v
			}
			return v
		case Corner:
			nx := x / pl.DieW
			ny := y / pl.DieH
			if p.StartSide == BottomRight || p.StartSide == TopRight {
				nx = 1 - nx
			}
			if p.StartSide == TopLeft || p.StartSide == TopRight {
				ny = 1 - ny
			}
			return math.Max(nx, ny) * extent
		default:
			v := x
			if p.StartSide == Right {
				v = extent - v
			}
			return v
		}
	}

	// meets reports whether powering all cells within frac of the
	// start side at high Vdd compensates the worst-case violation at
	// pos: the fitted slack distribution must clear zero by
	// yieldSigma sigmas.
	meets := func(ctx context.Context, frac float64, pos variation.Pos) (bool, error) {
		domains := make([]cell.Domain, nl.NumCells())
		bound := frac * extent
		for i := range domains {
			if axisPos(i) <= bound {
				domains[i] = cell.DomainHigh
			}
		}
		res, err := mc.Run(ctx, a, model, pos, mc.Options{
			Samples: opts.Samples,
			Seed:    opts.Seed,
			ClockPS: opts.ClockPS,
			Derate:  opts.Derate,
			Domains: domains,
		})
		if err != nil {
			return false, err
		}
		worst := math.Inf(1)
		for _, st := range mc.PipelineStages {
			if d := res.PerStage[st]; d != nil {
				if m := d.Fit.Mu - yieldSigma*d.Fit.Sigma; m < worst {
					worst = m
				}
			}
		}
		return worst >= 0, nil
	}

	prevFrac := 0.0
	for k, pos := range scenarioPos {
		// Binary search the smallest boundary fraction (not below
		// the previous island's bound) that compensates scenario
		// k+1; the speed-up grows monotonically with the slice. One
		// span per slicing pass; the per-check mc.Run spans nest
		// under it through islandCtx.
		islandCtx, span := obs.Start(ctx, fmt.Sprintf("vi.island/%d", k+1))
		span.SetAttr("strategy", opts.Strategy)
		span.SetAttr("pos", pos.Name)
		lo, hi := prevFrac, maxFrac
		ok, err := meets(islandCtx, hi, pos)
		checks := 1
		if err != nil {
			span.End()
			return nil, err
		}
		if !ok {
			span.End()
			return nil, flowerr.BadInputf("vi: %s slicing cannot compensate scenario %d (position %s) even at %.0f%% high-Vdd",
				opts.Strategy, k+1, pos.Name, 100*maxFrac)
		}
		for hi-lo > granularity {
			mid := (lo + hi) / 2
			ok, err := meets(islandCtx, mid, pos)
			checks++
			if err != nil {
				span.End()
				return nil, err
			}
			if ok {
				hi = mid
			} else {
				lo = mid
			}
		}
		frac := hi
		span.SetAttr("checks", checks)
		span.SetAttr("frac", strconv.FormatFloat(frac, 'f', 4, 64))
		span.End()
		isl := Island{Index: k + 1, FromUM: prevFrac * extent, ToUM: frac * extent}
		bound := frac * extent
		prevBound := prevFrac * extent
		for i := 0; i < nl.NumCells(); i++ {
			if v := axisPos(i); v > prevBound && v <= bound {
				isl.Cells = append(isl.Cells, i)
				p.Region[i] = int32(k + 1)
			}
		}
		p.Islands = append(p.Islands, isl)
		prevFrac = frac
	}
	return p, nil
}

// pickStartSide chooses the densest floorplan side (or corner) for
// the given strategy ("based on cell density considerations, we
// assess the most promising side of the processor core floorplan").
func pickStartSide(pl *place.Placement, s Strategy) Side {
	const bands = 8
	switch s {
	case Vertical:
		grid := pl.DensityMap(bands, 1)
		if grid[0][0] >= grid[0][bands-1] {
			return Left
		}
		return Right
	case Horizontal:
		grid := pl.DensityMap(1, bands)
		if grid[0][0] >= grid[bands-1][0] {
			return Bottom
		}
		return Top
	default:
		grid := pl.DensityMap(2, 2)
		best, bestD := BottomLeft, grid[0][0]
		for _, c := range []struct {
			side Side
			d    float64
		}{
			{BottomRight, grid[0][1]},
			{TopLeft, grid[1][0]},
			{TopRight, grid[1][1]},
		} {
			if c.d > bestD {
				best, bestD = c.side, c.d
			}
		}
		return best
	}
}
