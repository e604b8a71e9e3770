package mc

import (
	"vipipe/internal/cell"
	"vipipe/internal/flowerr"
	"vipipe/internal/place"
	"vipipe/internal/sta"
	"vipipe/internal/variation"
)

// Chip is the sample core of every Monte Carlo loop (Run's workers and
// yield.ComputeShard): it draws the sampled chips of one core position,
// brackets each cell's delay scale, bounds the arrivals through its
// kernel, and answers with the exact critical path or Frame, running
// the exact scaler only on the cells the brackets cannot decide. The
// derate and the clock are fixed at construction and the supply domains
// change only through SetDomains, between samples, so the brackets and
// the exact scales always describe the same chip.
//
// A Chip is not safe for concurrent use; Fork gives each worker its
// own.
type Chip struct {
	kern    *sta.Kernel
	smp     *variation.Sampler
	bounds  *cell.ScaleBounds
	scaler  cell.SampleScaler
	clockPS float64
	derate  []float64
	domains []cell.Domain

	lg, lo, hi []float64 // the drawn chip's gate lengths and scale brackets
	exact      sta.ExactFunc
}

// NewChip returns the sample core of a core placed at pos on the
// exposure field, timed by kern, which the Chip then owns. Sample k
// draws from the stream "mc/<pos>/<k>" under seed. derate (nil = none)
// and domains (nil = all VddLow) must cover every cell, and clockPS is
// the period every endpoint is timed at.
func NewChip(kern *sta.Kernel, pl *place.Placement, tech *cell.Tech, model *variation.Model, pos variation.Pos, seed int64,
	clockPS float64, derate []float64, domains []cell.Domain) (*Chip, error) {
	n := kern.NumCells()
	if clockPS <= 0 {
		return nil, flowerr.BadInputf("mc: clock period %g must be positive", clockPS)
	}
	if derate != nil && len(derate) != n {
		return nil, flowerr.BadInputf("mc: derate length %d != %d cells", len(derate), n)
	}
	c := &Chip{kern: kern, clockPS: clockPS, derate: derate}
	if err := c.SetDomains(domains); err != nil {
		return nil, err
	}
	c.smp = model.NewSampler(pl, pos, seed)
	c.bounds, c.scaler = tech.ScaleBounds(), tech.SampleScaler()
	c.alloc()
	return c, nil
}

// SetDomains puts the chip's cells under domains (nil = all VddLow),
// which must cover every cell, from the next Sample on. The chip reads
// the slice, which must not change until the chip's Frame or Crit has
// answered the sample.
func (c *Chip) SetDomains(domains []cell.Domain) error {
	if n := c.kern.NumCells(); domains != nil && len(domains) != n {
		return flowerr.BadInputf("mc: domains length %d != %d cells", len(domains), n)
	}
	c.domains = domains
	return nil
}

// Fork returns a Chip drawing the same chips with its own kernel,
// sampler stream and buffers.
func (c *Chip) Fork() *Chip {
	f := *c
	f.kern = sta.NewKernel(c.kern.View().Analyzer())
	f.smp = c.smp.Fork()
	f.alloc()
	return &f
}

// alloc gives the chip its sample buffers and the exact scaler the
// kernel refines with.
func (c *Chip) alloc() {
	n := c.kern.NumCells()
	c.lg, c.lo, c.hi = make([]float64, n), make([]float64, n), make([]float64, n)
	c.exact = func(cells []int32, out []float64) {
		c.scaler.ScaleCells(out, cells, c.lg, c.derate, c.domains)
	}
}

// Sample draws chip k: its gate lengths, their delay-scale brackets
// and the kernel's arrival bounds, which Crit and Frame then refine.
func (c *Chip) Sample(k int) {
	c.smp.Draw(k, c.lg)
	c.bounds.Bracket(c.lo, c.hi, c.lg, c.derate, c.domains)
	c.kern.Bound(c.lo, c.hi)
}

// Shift adds deltaNM to the gate length of each listed cell of the
// sampled chip (a local disturbance such as an overlay disc) and
// re-bounds only their fanout cones.
func (c *Chip) Shift(cells []int, deltaNM float64) {
	for _, i := range cells {
		c.lg[i] += deltaNM
		d, dom := 1.0, cell.DomainLow
		if c.derate != nil {
			d = c.derate[i]
		}
		if c.domains != nil {
			dom = c.domains[i]
		}
		c.lo[i], c.hi[i] = c.bounds.At(c.lg[i], d, dom)
	}
	c.kern.Rebound(c.lo, c.hi, cells)
}

// Crit returns the sampled chip's critical path, bit-identical to
// Kernel.Run on its exact delay scales.
func (c *Chip) Crit() float64 { return c.kern.Crit(c.clockPS, c.exact) }

// Frame summarizes the sampled chip into f, bit-identical to
// Kernel.RunFrame on its exact delay scales.
func (c *Chip) Frame(f *sta.Frame) { c.kern.Frame(f, c.clockPS, c.exact) }
