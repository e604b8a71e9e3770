// Package variation implements the paper's 65nm process-variation
// model (Section 4.1):
//
//   - Effective gate length Lgate is split into an across-field
//     systematic component f(x,y) — a second-order polynomial of the
//     position on the exposure field (Eq. 1), after Cain's measured
//     130nm photolithography data, scaled so the maximum systematic
//     deviation is +/-5.5% — and a random component epsilon drawn from
//     a normal distribution with 3*sigma/mu = 6.5% (Eq. 2), for a
//     total Lgate control of 3*sigma/mu ~ 9% (ITRS).
//   - A chip in the lower-left of the gradient (point A) is slowest;
//     along the diagonal toward the upper right the systematic
//     component fades and then helps (points B, C, D).
//   - Wire variation is ignored, as in the paper's reference models.
package variation

import (
	"fmt"
	"math"
	"strconv"

	"vipipe/internal/place"
	"vipipe/internal/stats"
)

// Model is the calibrated Lgate variation model.
type Model struct {
	FieldMM float64 // exposure-field edge (28mm in the paper)
	ChipMM  float64 // chip edge (14mm in the paper)

	LnomNM  float64 // nominal effective gate length
	SysFrac float64 // max systematic deviation as a fraction (0.055)
	RndFrac float64 // 3*sigma/mu of the random component (0.065)

	// Second-order polynomial coefficients over normalized chip
	// coordinates p, q in [0,1]:
	//
	//	g(p,q) = A p^2 + B q^2 + C p + D q + E pq + K
	//
	// normalized at construction so g spans exactly [-1, +1] over
	// the chip; Lgate(p,q) = Lnom * (1 + SysFrac * g(p,q)).
	A, B, C, D, E, K float64
}

// Default returns the model with the paper's constants: 65nm nominal
// Lgate, 5.5% systematic range, 6.5% random 3-sigma, a 28mm exposure
// field and a 14mm chip, and a polynomial whose gradient runs along
// the chip diagonal (Fig. 2: slowest in the lower-left corner).
func Default() Model { return defaultModel }

// defaultModel is normalized once: normalize scans the polynomial over
// a 141x141 grid, and every config built from a spec starts from
// Default.
var defaultModel = func() Model {
	m := rawDefault()
	m.normalize()
	return m
}()

// rawDefault is Default before normalization.
func rawDefault() Model {
	return Model{
		FieldMM: 28,
		ChipMM:  14,
		LnomNM:  65,
		SysFrac: 0.055,
		RndFrac: 0.065,
		// Raw shape: dominated by a negative diagonal gradient with
		// mild curvature and an xy cross term, qualitatively
		// matching the measured maps in Cain's data and Fig. 2.
		A: 0.15, B: 0.12, C: -1.10, D: -1.05, E: 0.18, K: 0,
	}
}

// normalize affinely rescales the polynomial so that it spans exactly
// [-1, +1] over the chip area, fulfilling the paper's "maximum
// systematic Lgate deviations by +/-5.5%".
func (m *Model) normalize() {
	const n = 140
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i <= n; i++ {
		for j := 0; j <= n; j++ {
			v := m.rawPoly(float64(i)/n, float64(j)/n)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	span := hi - lo
	if span == 0 {
		m.A, m.B, m.C, m.D, m.E, m.K = 0, 0, 0, 0, 0, 0
		return
	}
	// g' = 2*(g-lo)/span - 1: affine, stays second order.
	s := 2 / span
	m.A *= s
	m.B *= s
	m.C *= s
	m.D *= s
	m.E *= s
	m.K = m.K*s - lo*s - 1
}

func (m *Model) rawPoly(p, q float64) float64 {
	return m.A*p*p + m.B*q*q + m.C*p + m.D*q + m.E*p*q + m.K
}

// SystematicFrac returns the systematic Lgate deviation fraction at
// chip coordinates (xMM, yMM) in millimeters; (0,0) is the lower-left
// chip corner.
func (m *Model) SystematicFrac(xMM, yMM float64) float64 {
	p := clamp01(xMM / m.ChipMM)
	q := clamp01(yMM / m.ChipMM)
	return m.SysFrac * m.rawPoly(p, q)
}

// SystematicLgateNM returns the systematic component of Lgate at chip
// coordinates, paper Eq. 1.
func (m *Model) SystematicLgateNM(xMM, yMM float64) float64 {
	return m.LnomNM * (1 + m.SystematicFrac(xMM, yMM))
}

// RndSigmaNM returns the standard deviation of the random component.
func (m *Model) RndSigmaNM() float64 { return m.LnomNM * m.RndFrac / 3 }

// MapGrid samples the systematic deviation fraction on an n-by-n grid
// over the chip: the data behind Fig. 2. Row index is y (row 0 at the
// chip bottom), column index is x.
func (m *Model) MapGrid(n int) [][]float64 {
	if n < 2 {
		panic(fmt.Sprintf("variation: map grid %d too small", n))
	}
	g := make([][]float64, n)
	for j := range g {
		g[j] = make([]float64, n)
		y := float64(j) / float64(n-1) * m.ChipMM
		for i := range g[j] {
			x := float64(i) / float64(n-1) * m.ChipMM
			g[j][i] = m.SystematicFrac(x, y)
		}
	}
	return g
}

// Pos is a core placement position on the chip, in millimeters.
type Pos struct {
	Name string
	XMM  float64
	YMM  float64
}

// DiagonalPositions returns the paper's four core placements along the
// chip diagonal: A in the lower-left (worst-case systematic
// variation), then B, C, D toward the upper-right where nominal
// performance is guaranteed (Section 4.4).
func (m *Model) DiagonalPositions() []Pos {
	d := m.ChipMM
	return []Pos{
		{Name: "A", XMM: 0, YMM: 0},
		{Name: "B", XMM: 0.41 * d, YMM: 0.41 * d},
		{Name: "C", XMM: 0.55 * d, YMM: 0.55 * d},
		{Name: "D", XMM: 0.80 * d, YMM: 0.80 * d},
	}
}

// Position returns the diagonal position with the given name, and
// whether the model defines it.
func (m *Model) Position(name string) (Pos, bool) {
	for _, p := range m.DiagonalPositions() {
		if p.Name == name {
			return p, true
		}
	}
	return Pos{}, false
}

// SampleChip draws one fabricated-chip instance: per-cell effective
// gate lengths for a core placed with its lower-left corner at pos,
// combining the systematic map at each cell's physical location with
// an independent random draw (paper Eq. 2).
func (m *Model) SampleChip(pl *place.Placement, pos Pos, rng *stats.Stream) []float64 {
	lg := m.systematicLgates(pl, pos)
	rng.AddNormals(lg, lg, m.RndSigmaNM())
	return lg
}

// systematicLgates returns the systematic Lgate of every cell of a
// core placed at pos (paper Eq. 1).
func (m *Model) systematicLgates(pl *place.Placement, pos Pos) []float64 {
	sys := make([]float64, pl.NL.NumCells())
	for i := range sys {
		cx, cy := pl.Center(i)
		sys[i] = m.SystematicLgateNM(pos.XMM+cx/1000, pos.YMM+cy/1000) // placement is in microns
	}
	return sys
}

// Sampler draws the chips of a Monte Carlo run: the flow's sample core
// (mc.Chip, behind mc.Run and yield.ComputeShard) gets its per-cell
// gate lengths here. Sample k of a core at position pos draws
// from the stream DeriveStream(seed, "mc/<pos>/<k>"), so the engines
// see the same chip for the same k and a run's statistics do not
// depend on how its samples are split across workers or shards.
//
// A Sampler is not safe for concurrent use; Fork gives each worker
// its own.
type Sampler struct {
	sys    []float64 // systematic Lgate per cell; read-only, shared by forks
	sigma  float64
	seed   int64
	prefix int    // len("mc/<pos>/")
	name   []byte // stream name scratch, prefix preserved
	rng    *stats.Stream
}

// NewSampler hoists the systematic Lgate map of a core placed at pos
// and prepares the per-sample streams under the root seed.
func (m *Model) NewSampler(pl *place.Placement, pos Pos, seed int64) *Sampler {
	name := append(make([]byte, 0, len(pos.Name)+24), "mc/"+pos.Name+"/"...)
	return &Sampler{
		sys:    m.systematicLgates(pl, pos),
		sigma:  m.RndSigmaNM(),
		seed:   seed,
		prefix: len(name),
		name:   name,
		rng:    stats.NewStream(0),
	}
}

// Fork returns a Sampler drawing the same chips, sharing the
// systematic map but with its own stream state.
func (s *Sampler) Fork() *Sampler {
	f := *s
	f.name = append(make([]byte, 0, cap(s.name)), s.name[:s.prefix]...)
	f.rng = stats.NewStream(0)
	return &f
}

// Draw fills lg (one entry per cell) with sample k's gate lengths. It
// allocates nothing, and its bits equal SampleChip's with the stream
// DeriveStream(seed, "mc/<pos>/<k>"): the same draws, added to the same
// systematic values in the same order, in one AddNormals pass.
func (s *Sampler) Draw(k int, lg []float64) {
	s.name = strconv.AppendInt(s.name[:s.prefix], int64(k), 10)
	s.rng.Rederive(s.seed, s.name).AddNormals(lg, s.sys, s.sigma)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
