package cell

import (
	"math"
	"runtime"
)

// Tech bundles the technology parameters driving the paper's
// analytical delay and leakage models.
type Tech struct {
	VddLow  float64 // nominal supply, volts (1.0 in the paper)
	VddHigh float64 // boosted supply, volts (1.2 in the paper)
	Vth0    float64 // long-channel threshold voltage (0.22V, paper Eq. 4)
	Alpha   float64 // velocity-saturation exponent (1.3, paper Eq. 3)
	// AlphaDIBL is the DIBL coefficient of paper Eq. 4; Leff is
	// expressed in nanometers. With the paper's constants the DIBL
	// correction is a small second-order effect, as the paper notes.
	AlphaDIBL float64
	LgateNM   float64 // nominal effective gate length, nm (65)

	SubthermalV float64 // n*vT subthreshold slope factor for leakage, volts

	// Wire model (variation in wires is ignored, as in the paper).
	WireCapFFPerUM   float64 // net capacitance per unit HPWL
	WireDelayPSPerUM float64 // repeatered-wire delay per unit HPWL

	RowHeightUM float64 // standard-cell row height
	SiteWidthUM float64 // placement site width
}

// DefaultTech returns the 65nm technology parameters from the paper,
// with one calibration: Vth0 is raised from the paper's quoted
// long-channel 0.22V to 0.42V, the threshold of a low-power 65nm
// library at a 1.0V supply. With 0.22V the alpha-power model yields
// only a ~11% speed-up from the 1.0V->1.2V boost — not enough to
// compensate the >=10% worst-case degradation with a partial-coverage
// voltage island, which the paper's Fig. 4 islands plainly do; an LP
// threshold gives the ~18% boost their results imply (see DESIGN.md).
func DefaultTech() Tech {
	return Tech{
		VddLow:           1.0,
		VddHigh:          1.2,
		Vth0:             0.42,
		Alpha:            1.3,
		AlphaDIBL:        0.15,
		LgateNM:          65,
		SubthermalV:      0.035,
		WireCapFFPerUM:   0.20,
		WireDelayPSPerUM: 0.05,
		RowHeightUM:      1.8,
		SiteWidthUM:      0.26,
	}
}

// Vdd returns the supply voltage of a domain.
func (t *Tech) Vdd(d Domain) float64 {
	if d == DomainHigh {
		return t.VddHigh
	}
	return t.VddLow
}

// VthEff computes the effective threshold voltage at supply vdd and
// effective gate length lgateNM (nanometers) per paper Eq. 4:
//
//	VthEff = Vth0 - Vdd * exp(-alphaDIBL * Leff)
//
// A longer channel raises Vth; a higher Vdd lowers it slightly (DIBL).
func (t *Tech) VthEff(vdd, lgateNM float64) float64 {
	return t.Vth0 - vdd*math.Exp(-t.AlphaDIBL*lgateNM)
}

// alphaPower returns the un-normalized alpha-power delay factor
// Vdd/(Vdd-Vth)^alpha of paper Eq. 3 at the given operating point.
func (t *Tech) alphaPower(vdd, lgateNM float64) float64 {
	vth := t.VthEff(vdd, lgateNM)
	ov := vdd - vth
	if ov <= 0.01 {
		ov = 0.01 // guard: the device barely conducts
	}
	return vdd / math.Pow(ov, t.Alpha)
}

// DelayScale returns the multiplicative delay factor of a gate
// operating at supply vdd with effective gate length lgateNM, relative
// to the library characterization point (VddLow, nominal Lgate):
//
//	scale = (L/Lnom)^1.5 * AP(vdd, L) / AP(VddLow, Lnom)
//
// This is paper Eq. 3 normalized to the nominal corner, i.e. exactly
// the transformation the paper's SDF-rewriting parser applies.
func (t *Tech) DelayScale(vdd, lgateNM float64) float64 {
	lr := lgateNM / t.LgateNM
	return math.Pow(lr, 1.5) * t.alphaPower(vdd, lgateNM) / t.alphaPower(t.VddLow, t.LgateNM)
}

// DelayScaler returns DelayScale at a fixed supply for per-cell
// callers. Its results match DelayScale bit for bit: the nominal
// normalization factor is hoisted out of the call and both powers go
// through exactPow, but every operand and operation of DelayScale is
// kept, in order. Loops over a whole sample use SampleScaler.
func (t *Tech) DelayScaler(vdd float64) func(lgateNM float64) float64 {
	s := t.newDelayScaler()
	return func(lgateNM float64) float64 { return s.scale(vdd, lgateNM) }
}

// sampleBlock is the number of cells one SampleScaler pass covers:
// enough independent calls per pass to keep the CPU busy, while a
// block's scratch stays a few KiB of stack.
const sampleBlock = 256

// SampleScaler is DelayScale over a whole column of cells, for the
// Monte Carlo loops that scale every cell of every sampled chip. Each
// result equals DelayScale bit for bit, and a call allocates nothing.
//
// Per cell, DelayScale is one serial chain of Log and Exp calls, so a
// cell-at-a-time loop waits on each call's latency. SampleScaler runs
// the same calls on the same operands, but stage by stage over a block
// of cells, so the calls of neighbouring cells overlap. It is safe for
// concurrent use.
type SampleScaler struct {
	s        delayScaler
	vlo, vhi float64
}

// SampleScaler returns the block scaler of the technology.
func (t *Tech) SampleScaler() SampleScaler {
	return SampleScaler{s: t.newDelayScaler(), vlo: t.VddLow, vhi: t.VddHigh}
}

// Scale sets out[i] = DelayScale(Vdd(domains[i]), lg[i]) * derate[i]
// for every cell of lg. Nil domains puts every cell at VddLow; nil
// derate multiplies by nothing. out must be at least as long as lg.
func (sc *SampleScaler) Scale(out, lg, derate []float64, domains []Domain) {
	for lo := 0; lo < len(lg); lo += sampleBlock {
		hi := min(lo+sampleBlock, len(lg))
		var d []float64
		if derate != nil {
			d = derate[lo:hi]
		}
		var dom []Domain
		if domains != nil {
			dom = domains[lo:hi]
		}
		sc.scaleBlock(out[lo:hi], lg[lo:hi], d, dom)
	}
}

// ScaleCells is Scale over the listed cells of whole-chip columns:
// out[j] is cell cells[j]'s scale, bit for bit what Scale writes for
// it. Nil derate and domains mean what they mean for Scale. Each block
// of cells is gathered into stack columns, so a call allocates nothing.
func (sc *SampleScaler) ScaleCells(out []float64, cells []int32, lg, derate []float64, domains []Domain) {
	var glg, gder [sampleBlock]float64
	var gdom [sampleBlock]Domain
	for b := 0; b < len(cells); b += sampleBlock {
		cs := cells[b:min(b+sampleBlock, len(cells))]
		for j, c := range cs {
			glg[j] = lg[c]
		}
		var d []float64
		if derate != nil {
			for j, c := range cs {
				gder[j] = derate[c]
			}
			d = gder[:len(cs)]
		}
		var dom []Domain
		if domains != nil {
			for j, c := range cs {
				gdom[j] = domains[c]
			}
			dom = gdom[:len(cs)]
		}
		sc.scaleBlock(out[b:b+len(cs)], glg[:len(cs)], d, dom)
	}
}

// vdd is the supply of cell i of a block.
func (sc *SampleScaler) vdd(domains []Domain, i int) float64 {
	if domains != nil && domains[i] == DomainHigh {
		return sc.vhi
	}
	return sc.vlo
}

// gateTerms runs the two supply-independent passes over a block: on
// return lr15[i] = (lg[i]/Lnom)^1.5 and dibl[i] = exp(-AlphaDIBL*lg[i]).
func (sc *SampleScaler) gateTerms(lg []float64, lr15, dibl *[sampleBlock]float64) {
	s := &sc.s
	for i, l := range lg {
		r := s.ratio(l)
		lr15[i] = r
		if powDomain(r, 0.5) {
			dibl[i] = math.Log(r)
		}
	}
	for i, l := range lg {
		lr15[i] = powFinish(lr15[i], 0.5, 1.5, dibl[i])
		dibl[i] = s.dibl(l)
	}
}

// scaleBlock is Scale over at most sampleBlock cells.
func (sc *SampleScaler) scaleBlock(out, lg, derate []float64, domains []Domain) {
	var lr15, aux, ov [sampleBlock]float64
	s := &sc.s
	sc.gateTerms(lg, &lr15, &aux)
	for i := range lg {
		o := s.overdrive(sc.vdd(domains, i), aux[i])
		ov[i] = o
		if powDomain(o, s.alphaFrac) {
			aux[i] = math.Log(o)
		}
	}
	for i := range lg {
		x := s.finish(sc.vdd(domains, i), lr15[i], powFinish(ov[i], s.alphaFrac, s.alpha, aux[i]))
		if derate != nil {
			x *= derate[i]
		}
		out[i] = x
	}
}

// delayScaler is the per-Tech state of DelayScaler and SampleScaler:
// the model constants, the nominal normalization AP(VddLow, Lnom) and
// the fractional part of Alpha that exactPow needs.
type delayScaler struct {
	vth0, alphaDIBL, lnom, alpha float64
	alphaFrac                    float64 // exactPow's frac for Alpha; 0 when Alpha is outside (1, 1.5]
	denom                        float64
}

func (t *Tech) newDelayScaler() delayScaler {
	s := delayScaler{
		vth0:      t.Vth0,
		alphaDIBL: t.AlphaDIBL,
		lnom:      t.LgateNM,
		alpha:     t.Alpha,
		denom:     t.alphaPower(t.VddLow, t.LgateNM),
	}
	if ai, af := math.Modf(t.Alpha); ai == 1 && af > 0 && af <= 0.5 {
		s.alphaFrac = af
	}
	return s
}

// The helpers below are DelayScale's expressions, split where the
// block passes of SampleScaler store an intermediate. A float64 stored
// and reloaded keeps its bits, so the split changes no result.

// ratio is L/Lnom.
func (s *delayScaler) ratio(lgateNM float64) float64 { return lgateNM / s.lnom }

// dibl is exp(-AlphaDIBL*L), the DIBL term of VthEff.
func (s *delayScaler) dibl(lgateNM float64) float64 { return math.Exp(-s.alphaDIBL * lgateNM) }

// overdrive is alphaPower's clamped Vdd - VthEff given dibl.
func (s *delayScaler) overdrive(vdd, dibl float64) float64 {
	vth := s.vth0 - vdd*dibl
	ov := vdd - vth
	if ov <= 0.01 {
		ov = 0.01 // guard: the device barely conducts
	}
	return ov
}

// finish is DelayScale's product given lr15 = (L/Lnom)^1.5 and the
// overdrive power p = ov^Alpha.
func (s *delayScaler) finish(vdd, lr15, p float64) float64 {
	return lr15 * (vdd / p) / s.denom
}

// scale is DelayScale(vdd, L), one cell at a time.
func (s *delayScaler) scale(vdd, lgateNM float64) float64 {
	return s.at(vdd, exactPow(s.ratio(lgateNM), 0.5, 1.5), s.dibl(lgateNM))
}

// at is DelayScale(vdd, L) given lr15 = (L/Lnom)^1.5 and
// dibl = exp(-AlphaDIBL*L): the same expression as VthEff,
// alphaPower and DelayScale, operation for operation.
func (s *delayScaler) at(vdd, lr15, dibl float64) float64 {
	return s.finish(vdd, lr15, exactPow(s.overdrive(vdd, dibl), s.alphaFrac, s.alpha))
}

// exactPow returns math.Pow(x, y) bit for bit, for y = 1 + frac with
// 0 < frac <= 0.5, at about half the cost; frac = 0 marks any other y
// and always takes math.Pow. For such y and a positive normal x,
// math.Pow computes Ldexp(Exp(frac*Log(x)) * x1, xe) with
// x1, xe = Frexp(x). Scaling by a power of two is exact while every
// intermediate stays normal, so Exp(frac*Log(x)) * x rounds to the
// same bits. The bounds on x keep x^frac, x^y and x1*x^frac normal;
// outside them (NaN, infinities, zero, negatives, subnormals, huge
// values) the call falls back to math.Pow. So does s390x, where
// math.Pow is implemented in assembly.
func exactPow(x, frac, y float64) float64 {
	if powDomain(x, frac) {
		return expPow(x, frac, math.Log(x))
	}
	return math.Pow(x, y)
}

// powDomain reports whether exactPow(x, frac, y) takes the Exp/Log
// path, which needs math.Log(x).
func powDomain(x, frac float64) bool {
	return frac != 0 && runtime.GOARCH != "s390x" && x >= 0x1p-500 && x <= 0x1p500
}

// expPow is exactPow's Exp/Log path given logx = math.Log(x).
func expPow(x, frac, logx float64) float64 { return math.Exp(frac*logx) * x }

// powFinish is exactPow given logx = math.Log(x) when powDomain holds
// (logx is ignored otherwise).
func powFinish(x, frac, y, logx float64) float64 {
	if powDomain(x, frac) {
		return expPow(x, frac, logx)
	}
	return math.Pow(x, y)
}

// LeakScale returns the multiplicative subthreshold leakage factor for
// a device with effective gate length lgateNM relative to nominal, at
// supply vdd: leakage grows exponentially as Vth drops with channel
// length (paper Section 4.1: shorter Lgate lowers Vth, raising
// leakage).
func (t *Tech) LeakScale(vdd, lgateNM float64) float64 {
	dvth := t.VthEff(vdd, lgateNM) - t.VthEff(vdd, t.LgateNM)
	return math.Exp(-dvth / t.SubthermalV)
}

// EnergyScale returns the dynamic-energy factor (Vdd/VddLow)^2 for a
// domain, since switching energy is C*Vdd^2.
func (t *Tech) EnergyScale(d Domain) float64 {
	r := t.Vdd(d) / t.VddLow
	return r * r
}
