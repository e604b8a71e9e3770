package yield

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"

	"vipipe/internal/flowerr"
	"vipipe/internal/variation"
)

// Grid is a dense NX×NY lattice of chip positions over the exposure
// field, enumerated row-major (row 0 at the chip bottom, column 0 at
// the left) so position order — and therefore every reduce — is
// deterministic.
type Grid struct {
	NX int
	NY int
}

// Limits on the size of a field sweep. Each is far above what a useful
// sweep needs; they keep one request from asking for more positions,
// shard artifacts or histogram bins than a process can hold.
const (
	// MaxPositions bounds a plan's chip positions (a 64x64 grid).
	MaxPositions = 4096
	// MaxShards bounds the shard artifacts per position.
	MaxShards = 64
	// MaxAxisPoints bounds the yield-curve period axis.
	MaxAxisPoints = 4096
)

// ParseGrid parses the "NXxNY" flag syntax shared by cmd/viyield and
// the field_sweep job kind ("16x16", "8X4").
func ParseGrid(s string) (Grid, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	parts := strings.Split(t, "x")
	if len(parts) != 2 {
		return Grid{}, flowerr.BadInputf("yield: grid %q not of the form NXxNY", s)
	}
	nx, err1 := strconv.Atoi(parts[0])
	ny, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil || nx < 1 || ny < 1 {
		return Grid{}, flowerr.BadInputf("yield: grid %q not of the form NXxNY with positive dimensions", s)
	}
	g := Grid{NX: nx, NY: ny}
	if err := g.checkSize(); err != nil {
		return Grid{}, err
	}
	return g, nil
}

// checkSize rejects a grid of more than MaxPositions positions. Each
// dimension is checked before the product, so the product cannot
// overflow.
func (g Grid) checkSize() error {
	if g.NX > MaxPositions || g.NY > MaxPositions || g.NX*g.NY > MaxPositions {
		return flowerr.BadInputf("yield: grid %dx%d exceeds %d positions", g.NX, g.NY, MaxPositions)
	}
	return nil
}

// String renders the flag syntax back.
func (g Grid) String() string { return fmt.Sprintf("%dx%d", g.NX, g.NY) }

// NumPositions returns NX*NY.
func (g Grid) NumPositions() int { return g.NX * g.NY }

// Positions enumerates the grid over [0, spanMM] on both axes in
// row-major order. Names encode the lattice index ("r3c7"); a
// single-column (or -row) axis collapses to coordinate 0.
func (g Grid) Positions(spanMM float64) []variation.Pos {
	out := make([]variation.Pos, 0, g.NumPositions())
	for j := 0; j < g.NY; j++ {
		y := 0.0
		if g.NY > 1 {
			y = spanMM * float64(j) / float64(g.NY-1)
		}
		for i := 0; i < g.NX; i++ {
			x := 0.0
			if g.NX > 1 {
				x = spanMM * float64(i) / float64(g.NX-1)
			}
			out = append(out, variation.Pos{
				Name: fmt.Sprintf("r%dc%d", j, i),
				XMM:  x,
				YMM:  y,
			})
		}
	}
	return out
}

// PosOverlay is a localized Lgate disturbance at one grid position: a
// disc (chip-local millimeter coordinates) whose cells get an extra
// systematic gate-length delta. It models a local process excursion —
// and, operationally, it is the knob that dirties exactly one
// position's shards on a re-sweep.
type PosOverlay struct {
	// Pos names the grid position the overlay applies to.
	Pos string
	// XMM, YMM, RMM describe the disc in chip-local mm.
	XMM float64
	YMM float64
	RMM float64
	// DeltaFrac is the Lgate delta as a fraction of nominal
	// (e.g. 0.04 = +4% longer, slower gates inside the disc).
	DeltaFrac float64
}

// CurveAxis is the clock-period axis shared by every position's yield
// curve: Points equally spaced periods between LoPS and HiPS.
type CurveAxis struct {
	LoPS   float64
	HiPS   float64
	Points int
}

// Normalize mirrors the mc.Result.YieldCurve edge-case contract:
// inverted bounds swap, and a degenerate axis (Points <= 1 or
// LoPS == HiPS) collapses to a single point at LoPS.
func (a CurveAxis) Normalize() CurveAxis {
	if a.LoPS > a.HiPS {
		a.LoPS, a.HiPS = a.HiPS, a.LoPS
	}
	if a.Points <= 1 || a.LoPS == a.HiPS {
		a.Points = 1
		a.HiPS = a.LoPS
	}
	return a
}

// Resolve fills a zero axis from the flow clock — a bracket from 90%
// to 115% of the period, wide enough to see yield go from ~0 to 1 —
// then normalizes. Points defaults to 33.
func (a CurveAxis) Resolve(clockPS float64) CurveAxis {
	if a.LoPS == 0 && a.HiPS == 0 {
		a.LoPS = 0.90 * clockPS
		a.HiPS = 1.15 * clockPS
	}
	if a.Points == 0 {
		a.Points = 33
	}
	return a.Normalize()
}

// Periods materializes the period edges (the Histogram edge grid).
func (a CurveAxis) Periods() []float64 {
	a = a.Normalize()
	h := NewHistogram(a.LoPS, a.HiPS, a.Points)
	out := make([]float64, a.Points)
	for i := range out {
		out[i] = h.Edge(i)
	}
	return out
}

// Plan is the full specification of a field sweep. It deliberately
// lives outside vipipe.Config: the baseline artifacts (synth, place,
// analyze) are keyed by the config hash alone, so every plan over the
// same config shares them, and shard keys carry the plan's
// per-position content hash instead.
type Plan struct {
	Grid Grid
	// Positions overrides the grid enumeration with an explicit list
	// (the A-D equivalence suite uses this); empty means derive from
	// Grid over the model's chip span.
	Positions []variation.Pos
	// Overlays lists local disturbances, at most one per position
	// (a sorted slice, not a map, so plan hashing is deterministic).
	Overlays []PosOverlay
	// Samples is the Monte Carlo sample count per position.
	Samples int
	// Shards is the number of shard artifacts each position's samples
	// are cut into.
	Shards int
	// Seed is the root seed; per-sample streams derive from it by
	// global sample index, so the draw sequence is shard-invariant.
	Seed int64
	// Axis is the yield-curve period axis; a zero LoPS/HiPS resolves
	// from the flow clock at compute time.
	Axis CurveAxis
}

// Validate checks the plan's shape.
func (p Plan) Validate() error {
	if len(p.Positions) > MaxPositions {
		return flowerr.BadInputf("yield: %d positions exceed %d", len(p.Positions), MaxPositions)
	}
	if len(p.Positions) == 0 {
		if p.Grid.NX < 1 || p.Grid.NY < 1 {
			return flowerr.BadInputf("yield: plan needs a grid (got %dx%d) or explicit positions", p.Grid.NX, p.Grid.NY)
		}
		if err := p.Grid.checkSize(); err != nil {
			return err
		}
	}
	if p.Samples < 2 {
		return flowerr.BadInputf("yield: plan needs at least 2 samples per position, got %d", p.Samples)
	}
	if p.Shards < 1 {
		return flowerr.BadInputf("yield: plan needs at least 1 shard, got %d", p.Shards)
	}
	if p.Shards > p.Samples {
		return flowerr.BadInputf("yield: %d shards exceed %d samples per position", p.Shards, p.Samples)
	}
	if p.Shards > MaxShards {
		return flowerr.BadInputf("yield: %d shards exceed %d per position", p.Shards, MaxShards)
	}
	if p.Axis.Points < 0 || p.Axis.Points > MaxAxisPoints {
		return flowerr.BadInputf("yield: axis points %d outside 0..%d", p.Axis.Points, MaxAxisPoints)
	}
	seen := make(map[string]bool, len(p.Overlays))
	for _, ov := range p.Overlays {
		if seen[ov.Pos] {
			return flowerr.BadInputf("yield: duplicate overlay for position %q", ov.Pos)
		}
		seen[ov.Pos] = true
		if err := ov.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// MaxDeltaFrac bounds an overlay's |DeltaFrac|. It keeps every
// perturbed gate length at or above ~29 nm, more than 20 sigma of the
// random component away from zero, where the delay model still holds.
const MaxDeltaFrac = 0.5

// Validate checks that the disc is physical: a finite centre, radius
// and delta, a positive radius, and |DeltaFrac| <= MaxDeltaFrac.
func (ov PosOverlay) Validate() error {
	for _, v := range []float64{ov.XMM, ov.YMM, ov.RMM, ov.DeltaFrac} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return flowerr.BadInputf("yield: overlay at %q: disc (%g, %g) r %g delta %g is not finite",
				ov.Pos, ov.XMM, ov.YMM, ov.RMM, ov.DeltaFrac)
		}
	}
	if ov.RMM <= 0 {
		return flowerr.BadInputf("yield: overlay at %q needs a positive radius, got %g", ov.Pos, ov.RMM)
	}
	if math.Abs(ov.DeltaFrac) > MaxDeltaFrac {
		return flowerr.BadInputf("yield: overlay at %q: delta_frac %g outside [-%g, %g]", ov.Pos, ov.DeltaFrac, MaxDeltaFrac, MaxDeltaFrac)
	}
	return nil
}

// ResolvePositions returns the sweep's position list: the explicit
// override when set, otherwise the grid enumerated over the model's
// chip span. Every overlay must name a resolved position.
func (p Plan) ResolvePositions(m *variation.Model) ([]variation.Pos, error) {
	positions := p.Positions
	if len(positions) == 0 {
		positions = p.Grid.Positions(m.ChipMM)
	}
	known := make(map[string]bool, len(positions))
	for _, pos := range positions {
		if known[pos.Name] {
			return nil, flowerr.BadInputf("yield: duplicate position name %q in plan", pos.Name)
		}
		known[pos.Name] = true
	}
	for _, ov := range p.Overlays {
		if !known[ov.Pos] {
			return nil, flowerr.BadInputf("yield: overlay names unknown position %q", ov.Pos)
		}
	}
	return positions, nil
}

// OverlayFor returns the overlay at a position, or nil.
func (p Plan) OverlayFor(name string) *PosOverlay {
	for i := range p.Overlays {
		if p.Overlays[i].Pos == name {
			return &p.Overlays[i]
		}
	}
	return nil
}

// PosKey is the content hash of everything that determines one
// position's shard artifacts: coordinates, overlay, sampling shape,
// seed and axis. Editing one position's overlay changes only that
// position's keys, which is exactly the dirty-shard set of a warm
// re-sweep.
func (p Plan) PosKey(pos variation.Pos) string {
	h := sha256.New()
	fmt.Fprintf(h, "pos/%s/%v/%v\n", pos.Name, pos.XMM, pos.YMM)
	if ov := p.OverlayFor(pos.Name); ov != nil {
		fmt.Fprintf(h, "ov/%v/%v/%v/%v\n", ov.XMM, ov.YMM, ov.RMM, ov.DeltaFrac)
	}
	fmt.Fprintf(h, "mc/%d/%d/%d\n", p.Samples, p.Shards, p.Seed)
	fmt.Fprintf(h, "axis/%v/%v/%d\n", p.Axis.LoPS, p.Axis.HiPS, p.Axis.Points)
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:8])
}

// Hash is the content hash of the whole plan, the suffix of the
// surface node's key.
func (p Plan) Hash() string {
	h := sha256.New()
	fmt.Fprintf(h, "grid/%d/%d\n", p.Grid.NX, p.Grid.NY)
	for _, pos := range p.Positions {
		fmt.Fprintf(h, "pos/%s/%v/%v\n", pos.Name, pos.XMM, pos.YMM)
	}
	for _, ov := range p.Overlays {
		fmt.Fprintf(h, "ov/%s/%v/%v/%v/%v\n", ov.Pos, ov.XMM, ov.YMM, ov.RMM, ov.DeltaFrac)
	}
	fmt.Fprintf(h, "mc/%d/%d/%d\n", p.Samples, p.Shards, p.Seed)
	fmt.Fprintf(h, "axis/%v/%v/%d\n", p.Axis.LoPS, p.Axis.HiPS, p.Axis.Points)
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:8])
}

// NumShards returns the total shard-node count of the plan.
func (p Plan) NumShards() int {
	n := len(p.Positions)
	if n == 0 {
		n = p.Grid.NumPositions()
	}
	return n * p.Shards
}

// ShardRange splits samples into shards as evenly as possible and
// returns the half-open global sample range [start, start+count) of
// shard s. Early shards absorb the remainder, so ranges tile the
// sample space exactly.
func ShardRange(samples, shards, s int) (start, count int) {
	q, r := samples/shards, samples%shards
	start = s * q
	if s < r {
		start += s
		count = q + 1
	} else {
		start += r
		count = q
	}
	return start, count
}
