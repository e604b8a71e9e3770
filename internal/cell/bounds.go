package cell

import (
	"math"
	"sync"
)

// The ScaleBounds grid: L_j = L0 + j*boundStep with L0 = boundLo*LgateNM,
// up to boundHi*LgateNM (8,321 entries per supply at 65nm). One step
// moves DelayScale by ~1e-4 of its value at 65nm, about ten orders of
// magnitude more than the few-ulp error of the exact chain, so one bin
// of slack on each side of a cell's bin encloses its exact scale. A
// bracket then spans three steps, hi/lo ~1+3e-4: sta.Kernel.Bound
// derives every lower arrival bound from the largest such ratio, so
// the step sets how tight all of them are.
const (
	boundStep = 0x1p-8 // nm
	boundLo   = 0.75
	boundHi   = 1.25
	// boundMaxEntries caps a table; a Tech whose grid would be longer
	// brackets every cell exactly.
	boundMaxEntries = 1 << 16
)

// ScaleBounds brackets the delay scale of every cell of a sampled chip
// from a monotone lookup table, with no Exp or Log calls: for each cell,
// lo <= DelayScale(Vdd, L)*derate <= hi, where the middle term is the
// exact value SampleScaler.Scale returns. Monte Carlo loops time a
// sample on these brackets first (sta.Kernel.Bound) and run the exact
// scaler only on the few cells that can still set the result.
//
// The tables hold exact DelayScale values on the grid L_j at each
// supply. DelayScale never decreases as L grows when AlphaDIBL and
// Alpha are non-negative and both supplies positive: (L/Lnom)^1.5 and
// Vdd/(Vdd-VthEff)^Alpha both grow with L. A Tech outside those
// conditions, or whose tables are not strictly increasing, brackets
// every cell exactly (lo = hi = the exact scale): correct, but no
// pruning. So does a cell outside the table, with a non-finite L, or
// with a derate that is not finite and >= 0.
//
// A ScaleBounds is immutable and safe for concurrent use.
type ScaleBounds struct {
	s        delayScaler
	vlo, vhi float64
	l0       float64
	// lim is the exclusive upper limit of (L-L0)/boundStep for a
	// tabulated cell: its bin j and j+2 both lie in the table. Zero
	// brackets every cell exactly.
	lim    float64
	lo, hi []float64 // DelayScale on the grid at VddLow and VddHigh
}

// boundsMemo holds one ScaleBounds per Tech value, so the Monte Carlo
// shards of a flow share one set of tables.
var boundsMemo sync.Map // Tech -> *ScaleBounds

// ScaleBounds returns the technology's bracketing tables, built on
// first use and then shared by every caller with an equal Tech.
func (t *Tech) ScaleBounds() *ScaleBounds {
	if b, ok := boundsMemo.Load(*t); ok {
		return b.(*ScaleBounds)
	}
	b := t.newScaleBounds()
	// A Tech holding a NaN never equals itself, so it would never hit
	// the memo; do not let it grow the map.
	if *t == *t {
		v, _ := boundsMemo.LoadOrStore(*t, b)
		b = v.(*ScaleBounds)
	}
	return b
}

func (t *Tech) newScaleBounds() *ScaleBounds {
	b := &ScaleBounds{s: t.newDelayScaler(), vlo: t.VddLow, vhi: t.VddHigh, l0: boundLo * t.LgateNM}
	span := (boundHi - boundLo) * t.LgateNM / boundStep
	monotone := t.AlphaDIBL >= 0 && t.Alpha >= 0 && t.VddLow > 0 && t.VddHigh > 0 && t.LgateNM > 0
	if !monotone || !(span < boundMaxEntries) {
		return b
	}
	n := int(span) + 1
	grid := make([]float64, n)
	for j := range grid {
		grid[j] = b.l0 + float64(j)*boundStep
	}
	high := make([]Domain, n)
	for j := range high {
		high[j] = DomainHigh
	}
	sc := t.SampleScaler()
	b.lo, b.hi = make([]float64, n), make([]float64, n)
	sc.Scale(b.lo, grid, nil, nil)
	sc.Scale(b.hi, grid, nil, high)
	for j := 1; j < n; j++ {
		if !(b.lo[j-1] < b.lo[j] && b.hi[j-1] < b.hi[j]) {
			return b
		}
	}
	b.lim = float64(n - 2)
	return b
}

// Bracket sets lo[i] <= DelayScale(Vdd(domains[i]), lg[i])*derate[i] <=
// hi[i] for every cell of lg, where the middle term is bit for bit what
// SampleScaler.Scale computes. Nil domains puts every cell at VddLow;
// nil derate multiplies by nothing. lo and hi must be at least as long
// as lg. A call allocates nothing.
func (b *ScaleBounds) Bracket(lo, hi, lg, derate []float64, domains []Domain) {
	lo, hi = lo[:len(lg)], hi[:len(lg)]
	for i, l := range lg {
		d := 1.0 // x*1 == x, so a nil derate changes no bits
		if derate != nil {
			d = derate[i]
		}
		dom := DomainLow
		if domains != nil {
			dom = domains[i]
		}
		tab := b.lo
		if dom == DomainHigh {
			tab = b.hi
		}
		// With L in bin j (L_j <= L < L_j+1), L_j-1 < L - one step and
		// L_j+2 > L + one step; the bin slack also absorbs the rounding
		// of the index and of the grid points. NaN fails every
		// comparison.
		if x := (l - b.l0) * (1 / boundStep); x >= 1 && x < b.lim && d >= 0 && d <= math.MaxFloat64 {
			j := int(x)
			lo[i], hi[i] = tab[j-1]*d, tab[j+2]*d
			continue
		}
		lo[i], hi[i] = b.exact(l, d, dom)
	}
}

// At is Bracket for one cell with gate length l, derate d (1 for none)
// and supply domain dom.
func (b *ScaleBounds) At(l, d float64, dom Domain) (lo, hi float64) {
	var lg, dr, blo, bhi [1]float64
	lg[0], dr[0] = l, d
	b.Bracket(blo[:], bhi[:], lg[:], dr[:], []Domain{dom})
	return blo[0], bhi[0]
}

// exact brackets a cell the table does not cover: lo = hi = its exact
// scale.
func (b *ScaleBounds) exact(l, d float64, dom Domain) (lo, hi float64) {
	vdd := b.vlo
	if dom == DomainHigh {
		vdd = b.vhi
	}
	e := b.s.scale(vdd, l) * d
	return e, e
}
