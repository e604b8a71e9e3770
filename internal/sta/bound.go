package sta

import (
	"math"
	"math/bits"

	"vipipe/internal/netlist"
)

// Bound-then-refine evaluation. A Monte Carlo sample brackets every
// cell's delay scale (cell.ScaleBounds), Bound runs Run's own arrival
// walk on the upper bracket ends and derives every lower arrival bound
// from it through the largest bracket ratio, and Crit or Frame then
// asks the exact scaler for the few cells whose bounds can still reach
// the sample's result, and re-times only the nets those cells drive.
// Every result is bit-identical to Run or RunFrame on the exact scales:
//
//   - Upper bounds: rounding to nearest is monotone, and the kernel's
//     delays are non-negative, so the walk's +, x and max on hi keep
//     up[n] >= the exact arrival on every net. Endpoints use each
//     flop's own bracket ends, by the same monotonicity.
//   - Lower bounds: let rho be the largest hi[i]/lo[i]. Every scaled
//     term of a path sum is base*hi <= rho*base*s for the exact scale
//     s >= lo, and wires are not scaled, so w <= rho*w (w >= 0,
//     rho >= 1). In real arithmetic the walk on hi is thus at most rho
//     times the walk on the exact scales, on every net.
//   - Rounding: on a path of d comb cells each term of the sum passes
//     at most 2d+1 roundings (its product, two additions per cell),
//     each within a factor (1+u) or (1-u), u = 2^-53. The computed
//     rho, the factor c = (1/rho)*(1-m) and the product up[n]*c round
//     four more times. With D the kernel's comb depth, up[n]*c <=
//     exact*(1-m)*(1+u)^(2D+5)/(1-u)^(2D+1) <= exact*(1-m)*
//     exp((4D+6)u(1+2u)), which is <= exact for m = (4D+8)u: ~4e-14
//     on the full-size core (D = 86), against hi/lo ~1+3e-4. -Inf
//     (unreachable) and 0 (primary inputs) arrivals stay as they are.
//     1-m is an exact double while m <= 1/2, which holds for any
//     netlist that fits in memory; a deeper graph takes the exact path.
//   - Range: an addition whose result is subnormal is exact, but a
//     product that underflows or a sum that overflows breaks the 1+u
//     factor. Nonzero delays, wires and bracket ends in [minMag,
//     maxMag] and rho <= maxRho keep every product and sum of both
//     walks, and up[n]*c, normal and finite.
//   - Pruning: a pruned value cannot be a max: it is <= its upper
//     bound, which is < the largest lower bound, which is <= the exact
//     max. The demand tests use >=, so every value that can equal the
//     max is kept, and scan-order tie-breaks do not change. The same
//     holds for minima.
//
// A bracket that is not ordered or out of range (lo = 0 included), a
// ratio over maxRho, a delay, setup or wire out of range, and a
// non-finite clock void that argument; such a sample takes the exact path: every
// cell goes through exact, then Run or RunFrame.

// The range the rounding argument admits.
const (
	minMag = 0x1p-500 // smallest nonzero delay, setup or wire, smallest lo
	maxMag = 0x1p300  // largest delay, setup, wire or hi
	maxRho = 0x1p20   // largest bracket ratio
)

// ExactFunc sets out[j] to the exact delay scale of cell cells[j]. The
// kernel calls it once per Crit or Frame; cells and out are kernel
// scratch, valid only during the call.
type ExactFunc func(cells []int32, out []float64)

// refineCap is the initial room of the refine lists: more than a
// full-size core's sample needs (at most 70 cells for Crit and 210
// for Frame over 128 measured samples, 32 at each of positions A-D
// with the slack-recovery derate), so a shard's allocations do not
// grow with its sample count.
const refineCap = 1024

// bounds is the kernel's bound-then-refine scratch, allocated on first
// use and kept apart from arr, so Run, Rerun and RunFrame and their
// retained state are untouched by it.
type bounds struct {
	up     []float64 // upper arrival bound per net: Run's walk on hi
	lo, hi []float64 // the cell brackets of the last Bound/Rebound
	rho    float64   // >= 1 and >= every hi/lo of those brackets
	c      float64   // the lower-bound factor: a net's lower bound is up*c
	shrink float64   // 1-m, the rounding margin of c
	unsafe bool      // a bracket or rho voids the exactness argument
	// exactOnly marks a kernel whose characterized delays or depth
	// void the argument for every sample.
	exactOnly bool

	// The demanded nets of one refine, a sparse set: net n is demanded
	// iff slot[n] < len(nets) and nets[slot[n]] == n, so emptying the
	// set is O(1). ex[slot[n]] is then n's exact arrival.
	slot []uint32
	nets []int32
	ex   []float64
	// work holds bit p while the comb cell order[p] drives a demanded
	// net that refine has not visited yet.
	work []uint64

	cells []int32   // cells sent to exact
	xs    []float64 // their exact scales
	nComb int       // cells[:nComb] are comb cells in reverse topological order
}

func (k *Kernel) initBounds() *bounds {
	nNets := k.NumNets()
	b := &bounds{
		up:     make([]float64, nNets),
		shrink: 1 - float64(4*k.depth+8)*0x1p-53,
		slot:   make([]uint32, nNets),
		nets:   make([]int32, 0, refineCap),
		ex:     make([]float64, refineCap),
		work:   make([]uint64, (len(k.order)+63)/64),
		cells:  make([]int32, 0, refineCap),
		xs:     make([]float64, refineCap),
	}
	b.exactOnly = b.shrink < 0.5
	for i, d := range k.base {
		if !inRange(d) || !inRange(k.setup[i]) {
			b.exactOnly = true
		}
	}
	for _, w := range k.wire {
		if !inRange(w) {
			b.exactOnly = true
		}
	}
	k.bnd = b
	return b
}

// demanded reports whether net n is in the demand set.
func (b *bounds) demanded(n int32) bool {
	s := b.slot[n]
	return int(s) < len(b.nets) && b.nets[s] == n
}

// demand adds net n to the demand set and queues its comb driver.
func (k *Kernel) demand(n int32) {
	b := k.bnd
	if b.demanded(n) {
		return
	}
	b.slot[n] = uint32(len(b.nets))
	b.nets = append(b.nets, n)
	if p := k.drvPos[n]; p >= 0 {
		b.work[p>>6] |= 1 << (p & 63)
	}
}

// exact returns demanded net n's exact arrival.
func (b *bounds) exact(n int32) float64 { return b.ex[b.slot[n]] }

// lower returns net n's lower arrival bound.
func (b *bounds) lower(n int32) float64 { return b.up[n] * b.c }

// inRange reports whether x is 0 or in [minMag, maxMag].
func inRange(x float64) bool { return x == 0 || minMag <= x && x <= maxMag }

// widen folds the bracket lo <= scale <= hi of one cell into rho, the
// largest hi/lo so far; ok is false for a bracket that is not ordered
// or out of range. It divides only when the ratio grows, so the pass
// costs a multiply per cell.
func widen(rho, lo, hi float64) (_ float64, ok bool) {
	if !(minMag <= lo && lo <= hi && hi <= maxMag) {
		return rho, false
	}
	if hi > rho*lo {
		rho = max(rho, hi/lo)
	}
	return rho, true
}

// setRatio makes rho the brackets' largest ratio and derives the
// lower-bound factor from it; a rho over maxRho voids the exactness
// argument.
func (b *bounds) setRatio(rho float64) {
	b.rho = rho
	if !(rho <= maxRho) {
		b.unsafe = true
		return
	}
	b.c = (1 / rho) * b.shrink
}

// Bound bounds the arrivals for the cell scale brackets lo <= scale <=
// hi, each with NumCells entries: Run's walk on hi gives every upper
// bound, and the brackets' largest ratio every lower bound. The
// brackets are retained, unchanged, for the Crit or Frame call that
// follows.
func (k *Kernel) Bound(lo, hi []float64) {
	b := k.bnd
	if b == nil {
		b = k.initBounds()
	}
	b.lo, b.hi = lo, hi
	b.unsafe = b.exactOnly
	rho := 1.0
	for i := range k.out {
		var ok bool
		if rho, ok = widen(rho, lo[i], hi[i]); !ok {
			b.unsafe = true
		}
	}
	b.setRatio(rho)
	k.propagate(b.up, hi)
}

// Rebound updates the retained bounds after a sparse bracket change,
// as Rerun does for arrivals: dirty lists every instance whose bracket
// differs from the previous Bound/Rebound. Their ratios widen rho, and
// only their fanout cones re-propagate. It follows a Bound.
func (k *Kernel) Rebound(lo, hi []float64, dirty []int) {
	b := k.bnd
	b.lo, b.hi = lo, hi
	rho := b.rho
	for _, i := range dirty {
		var ok bool
		if rho, ok = widen(rho, lo[i], hi[i]); !ok {
			b.unsafe = true
		}
	}
	b.setRatio(rho)
	k.update(b.up, hi, dirty)
}

// exactPath reports whether the retained bounds cannot be refined at
// this clock.
func (k *Kernel) exactPath(clockPS float64) bool {
	return k.bnd.unsafe || math.IsNaN(clockPS) || math.IsInf(clockPS, 0)
}

// exactAll sends every cell to exact and returns their scales.
func (k *Kernel) exactAll(exact ExactFunc) []float64 {
	b := k.bnd
	b.cells = b.cells[:0]
	for i := range k.out {
		b.cells = append(b.cells, int32(i))
	}
	b.xs = grow(b.xs, len(b.cells))
	exact(b.cells, b.xs)
	return b.xs
}

// grow returns buf resliced to n, reallocated when it is too short.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	return buf[:n]
}

// required is a flop's required time at scale sc: the clock less its
// scaled setup.
func (s *shape) required(clockPS float64, i int, sc float64) float64 {
	return clockPS - s.setup[i]*sc
}

// Crit returns the critical path of the bounded sample, bit-identical
// to Run on the exact scales. exact is called once, for the candidate
// endpoints' flops and the cells that can still set their arrivals.
func (k *Kernel) Crit(clockPS float64, exact ExactFunc) float64 {
	if k.exactPath(clockPS) {
		return k.Run(clockPS, k.exactAll(exact))
	}
	b := k.bnd
	neg := math.Inf(-1)
	// The largest lower bound of the endpoint scan's crit expression.
	maxLo := 0.0
	for _, i := range k.seq {
		n := k.in0[i]
		if tl := b.lower(n) + k.wire[n]; tl != neg {
			maxLo = max(maxLo, tl+(clockPS-k.required(clockPS, i, b.lo[i])))
		}
	}
	for _, n := range k.pos {
		if tl := b.lower(int32(n)) + k.wire[n]; tl != neg {
			maxLo = max(maxLo, tl+(clockPS-clockPS))
		}
	}
	// Candidates: every endpoint whose upper bound reaches it.
	k.epoch++
	e := k.epoch
	b.nets = b.nets[:0]
	for _, i := range k.seq {
		n := k.in0[i]
		if th := b.up[n] + k.wire[n]; th != neg && th+(clockPS-k.required(clockPS, i, b.hi[i])) >= maxLo {
			k.mark[i] = e
			k.demand(n)
		}
	}
	for _, n := range k.pos {
		if th := b.up[n] + k.wire[n]; th != neg && th+(clockPS-clockPS) >= maxLo {
			k.demand(int32(n))
		}
	}
	k.refine(e, exact)
	// The endpoint scan's crit over the candidates: flops in ascending
	// order, then POs.
	crit := 0.0
	for j := b.nComb; j < len(b.cells); j++ {
		i := int(b.cells[j])
		if k.mark[i] != e {
			continue
		}
		need := k.required(clockPS, i, b.xs[j])
		n := k.in0[i]
		t := b.exact(n) + k.wire[n]
		if t == neg {
			continue
		}
		if c := t + (clockPS - need); c > crit {
			crit = c
		}
	}
	for _, n := range k.pos {
		if !b.demanded(int32(n)) {
			continue
		}
		t := b.exact(int32(n)) + k.wire[n]
		if t == neg {
			continue
		}
		if c := t + (clockPS - clockPS); c > crit {
			crit = c
		}
	}
	return crit
}

// Frame summarizes the bounded sample into f, bit-identical to
// RunFrame on the exact scales. Candidates are the endpoints that can
// still set CritPS or a stage's worst slack.
func (k *Kernel) Frame(f *Frame, clockPS float64, exact ExactFunc) {
	if k.exactPath(clockPS) {
		k.RunFrame(f, clockPS, k.exactAll(exact))
		return
	}
	b := k.bnd
	neg := math.Inf(-1)
	f.reset(clockPS)
	// Structure (Present, Endpoints), the largest crit lower bound and
	// each stage's smallest slack upper bound.
	maxLo := 0.0
	var minHi [netlist.NumStages]float64
	for s := range minHi {
		minHi[s] = math.Inf(1)
	}
	for _, i := range k.seq {
		n := k.in0[i]
		tl := b.lower(n) + k.wire[n]
		if tl == neg {
			continue
		}
		st := k.stage[i]
		f.count(st)
		needHi := k.required(clockPS, i, b.lo[i])
		maxLo = max(maxLo, tl+(clockPS-needHi))
		minHi[st] = min(minHi[st], needHi-tl)
	}
	for _, n := range k.pos {
		tl := b.lower(int32(n)) + k.wire[n]
		if tl == neg {
			continue
		}
		f.count(netlist.StageNone)
		maxLo = max(maxLo, tl+(clockPS-clockPS))
		minHi[netlist.StageNone] = min(minHi[netlist.StageNone], clockPS-tl)
	}
	k.epoch++
	e := k.epoch
	b.nets = b.nets[:0]
	for _, i := range k.seq {
		n := k.in0[i]
		th := b.up[n] + k.wire[n]
		if th == neg {
			continue
		}
		needLo := k.required(clockPS, i, b.hi[i])
		if th+(clockPS-needLo) >= maxLo || needLo-th <= minHi[k.stage[i]] {
			k.mark[i] = e
			k.demand(n)
		}
	}
	for _, n := range k.pos {
		if th := b.up[n] + k.wire[n]; th != neg && (th+(clockPS-clockPS) >= maxLo || clockPS-th <= minHi[netlist.StageNone]) {
			k.demand(int32(n))
		}
	}
	k.refine(e, exact)
	// endpoints over the candidates, in its scan order: flops in
	// ascending order, then POs.
	for j := b.nComb; j < len(b.cells); j++ {
		i := int(b.cells[j])
		if k.mark[i] != e {
			continue
		}
		need := k.required(clockPS, i, b.xs[j])
		n := k.in0[i]
		t := b.exact(n) + k.wire[n]
		if t == neg {
			continue
		}
		f.observe(i, t, need, need-t, k.stage[i])
	}
	for _, n := range k.pos {
		if !b.demanded(int32(n)) {
			continue
		}
		if t := b.exact(int32(n)) + k.wire[n]; t != neg {
			f.observe(netlist.NoInst, t, clockPS, clockPS-t, netlist.StageNone)
		}
	}
}

// refine completes the demand set from the candidate endpoints (flops
// marked with epoch e, endpoint nets demanded), calls exact once for
// the demanded cells and computes the exact arrival of every demanded
// net. A comb cell's demanded inputs are those whose upper bound
// reaches the largest lower bound among its inputs; only they can set
// its exact arrival. The cells come off the worklist in reverse
// topological order, the order a backward scan of order meets them:
// the highest queued position first, and visiting a cell queues only
// its inputs' drivers, which sit earlier in order.
func (k *Kernel) refine(e uint32, exact ExactFunc) {
	b := k.bnd
	neg := math.Inf(-1)
	cells := b.cells[:0]
	for w := len(b.work) - 1; w >= 0; w-- {
		for b.work[w] != 0 {
			bit := 63 - bits.LeadingZeros64(b.work[w])
			b.work[w] &^= 1 << bit
			i := k.order[w<<6|bit]
			in := k.inNet[k.inPtr[i]:k.inPtr[i+1]]
			wl := neg
			for _, n := range in {
				wl = max(wl, b.lower(n)+k.wire[n])
			}
			for _, n := range in {
				if b.up[n]+k.wire[n] >= wl {
					k.demand(n)
				}
			}
			cells = append(cells, int32(i))
		}
	}
	b.nComb = len(cells)
	for _, i := range k.seq {
		if k.mark[i] == e || b.demanded(k.out[i]) {
			cells = append(cells, int32(i))
		}
	}
	b.cells = cells
	b.xs = grow(b.xs, len(cells))
	xs := b.xs
	exact(cells, xs)

	b.ex = grow(b.ex, len(b.nets))
	ex := b.ex
	for _, n := range k.pis {
		if b.demanded(int32(n)) {
			ex[b.slot[n]] = 0
		}
	}
	for j := b.nComb; j < len(cells); j++ {
		if n := k.out[cells[j]]; b.demanded(n) {
			ex[b.slot[n]] = k.base[cells[j]] * xs[j]
		}
	}
	// propagate over the demanded nets, in topological order.
	for j := b.nComb - 1; j >= 0; j-- {
		i := cells[j]
		worst := neg
		for _, n := range k.inNet[k.inPtr[i]:k.inPtr[i+1]] {
			if !b.demanded(n) {
				continue
			}
			if t := ex[b.slot[n]] + k.wire[n]; t > worst {
				worst = t
			}
		}
		out := b.slot[k.out[i]]
		if worst == neg {
			ex[out] = neg
			continue
		}
		ex[out] = worst + k.base[i]*xs[j]
	}
}
