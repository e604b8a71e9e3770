package sta

import (
	"math"

	"vipipe/internal/netlist"
)

// Bound-then-refine evaluation. A Monte Carlo sample brackets every
// cell's delay scale (cell.ScaleBounds), Bound carries both bracket
// ends through the timing graph in one walk, and Crit or Frame then
// asks the exact scaler for the few cells whose bounds can still reach
// the sample's result, and re-times only the nets those cells drive.
// Every result is bit-identical to Run or RunFrame on the exact scales:
//
//   - Rounding to nearest is monotone, and the kernel's delays are
//     non-negative, so the walk's +, x and max in Run's operation order
//     keep lo <= exact <= hi on every arrival and endpoint expression.
//   - A pruned value cannot be a max: it is <= its upper bound, which
//     is < the largest lower bound, which is <= the exact max. The
//     demand tests use >=, so every value that can equal the max is
//     kept, and scan-order tie-breaks do not change. The same holds
//     for minima.
//
// A bracket that is negative or not finite (and a non-finite clock)
// voids that argument; such a sample takes the exact path: every cell
// goes through exact, then Run or RunFrame.

// ExactFunc sets out[j] to the exact delay scale of cell cells[j]. The
// kernel calls it once per Crit or Frame; cells and out are kernel
// scratch, valid only during the call.
type ExactFunc func(cells []int32, out []float64)

// refineCap is the initial room of the refine lists: more than a
// full-size core's sample needs (at most 122 cells for Crit and 380
// for Frame over 128 measured samples), so a shard's allocations do
// not grow with its sample count.
const refineCap = 1024

// bounds is the kernel's bound-then-refine scratch, allocated on first
// use and kept apart from arr, so Run, Rerun and RunFrame and their
// retained state are untouched by it.
type bounds struct {
	arr      [][2]float64 // lower and upper arrival bound per net
	lo, hi   []float64    // the cell brackets of the last Bound/Rebound
	unsafe   bool         // a walked bracket voids the exactness argument
	badDelay bool         // a characterized delay is negative or not finite

	// The demanded nets of one refine, a sparse set: net n is demanded
	// iff slot[n] < len(nets) and nets[slot[n]] == n, so emptying the
	// set is O(1). ex[slot[n]] is then n's exact arrival.
	slot []uint32
	nets []int32
	ex   []float64

	cells []int32   // cells sent to exact
	xs    []float64 // their exact scales
	nComb int       // cells[:nComb] are comb cells in reverse topological order
}

func (k *Kernel) initBounds() *bounds {
	nNets := k.NumNets()
	b := &bounds{
		arr:   make([][2]float64, nNets),
		slot:  make([]uint32, nNets),
		nets:  make([]int32, 0, refineCap),
		ex:    make([]float64, refineCap),
		cells: make([]int32, 0, refineCap),
		xs:    make([]float64, refineCap),
	}
	for i, d := range k.base {
		if !boundable(d) || !boundable(k.setup[i]) {
			b.badDelay = true
		}
	}
	for _, w := range k.wire {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			b.badDelay = true
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

// demand adds net n to the demand set.
func (b *bounds) demand(n int32) {
	if !b.demanded(n) {
		b.slot[n] = uint32(len(b.nets))
		b.nets = append(b.nets, n)
	}
}

// exact returns demanded net n's exact arrival.
func (b *bounds) exact(n int32) float64 { return b.ex[b.slot[n]] }

// boundable reports whether x is finite and >= 0.
func boundable(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }

// Bound propagates lower and upper arrival bounds for the cell scale
// brackets lo <= scale <= hi through the whole timing graph, in Run's
// operation order. The brackets are retained, unchanged, for the Crit
// or Frame call that follows.
func (k *Kernel) Bound(lo, hi []float64) {
	b := k.bnd
	if b == nil {
		b = k.initBounds()
	}
	b.lo, b.hi = lo, hi
	b.unsafe = b.badDelay || !bracketsSafe(lo, hi, k.seq)
	arr := b.arr
	neg := math.Inf(-1)
	for n := range arr {
		arr[n] = [2]float64{neg, neg}
	}
	for _, n := range k.pis {
		arr[n] = [2]float64{}
	}
	for _, i := range k.seq {
		arr[k.out[i]] = [2]float64{k.base[i] * lo[i], k.base[i] * hi[i]}
	}
	for _, i := range k.order {
		if k.isTie[i] {
			continue
		}
		// The bracket check rides this walk, where lo[i] and hi[i]
		// are loaded anyway.
		if !boundable(lo[i]) || !boundable(hi[i]) {
			b.unsafe = true
		}
		arr[k.out[i]] = k.boundCell(arr, lo, hi, i)
	}
}

// bracketsSafe reports whether every listed cell's bracket is finite
// and >= 0, as the exactness argument needs.
func bracketsSafe(lo, hi []float64, cells []int) bool {
	for _, i := range cells {
		if !boundable(lo[i]) || !boundable(hi[i]) {
			return false
		}
	}
	return true
}

// boundCell is propagate's arrival expression for comb cell i on both
// bracket ends, over the bounds arr.
func (k *Kernel) boundCell(arr [][2]float64, lo, hi []float64, i int) [2]float64 {
	neg := math.Inf(-1)
	wl, wh := neg, neg
	for _, n := range k.inNet[k.inPtr[i]:k.inPtr[i+1]] {
		a, w := arr[n], k.wire[n]
		if t := a[0] + w; t > wl {
			wl = t
		}
		if t := a[1] + w; t > wh {
			wh = t
		}
	}
	out := [2]float64{neg, neg}
	if wl != neg {
		out[0] = wl + k.base[i]*lo[i]
	}
	if wh != neg {
		out[1] = wh + k.base[i]*hi[i]
	}
	return out
}

// Rebound updates the retained bounds after a sparse bracket change,
// as Rerun does for arrivals: dirty lists every instance whose bracket
// differs from the previous Bound/Rebound, and only their fanout cones
// re-propagate. It follows a Bound.
func (k *Kernel) Rebound(lo, hi []float64, dirty []int) {
	b := k.bnd
	b.lo, b.hi = lo, hi
	if !bracketsSafe(lo, hi, dirty) {
		b.unsafe = true
	}
	k.epoch++
	e := k.epoch
	for _, i := range dirty {
		switch {
		case k.isSeq[i]:
			if nv := [2]float64{k.base[i] * lo[i], k.base[i] * hi[i]}; nv != b.arr[k.out[i]] {
				b.arr[k.out[i]] = nv
				k.markSinks(k.out[i], e)
			}
		case k.isTie[i]:
		default:
			k.mark[i] = e
		}
	}
	for _, i := range k.order {
		if k.mark[i] != e {
			continue
		}
		if nv := k.boundCell(b.arr, lo, hi, i); nv != b.arr[k.out[i]] {
			b.arr[k.out[i]] = nv
			k.markSinks(k.out[i], e)
		}
	}
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
		if tl := b.arr[n][0] + k.wire[n]; tl != neg {
			maxLo = max(maxLo, tl+(clockPS-k.required(clockPS, i, b.lo[i])))
		}
	}
	for _, n := range k.pos {
		if tl := b.arr[n][0] + k.wire[n]; tl != neg {
			maxLo = max(maxLo, tl+(clockPS-clockPS))
		}
	}
	// Candidates: every endpoint whose upper bound reaches it.
	k.epoch++
	e := k.epoch
	b.nets = b.nets[:0]
	for _, i := range k.seq {
		n := k.in0[i]
		if th := b.arr[n][1] + k.wire[n]; th != neg && th+(clockPS-k.required(clockPS, i, b.hi[i])) >= maxLo {
			k.mark[i] = e
			b.demand(n)
		}
	}
	for _, n := range k.pos {
		if th := b.arr[n][1] + k.wire[n]; th != neg && th+(clockPS-clockPS) >= maxLo {
			b.demand(int32(n))
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
// still set CritPS, a stage's worst slack, or a flop's violation.
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
		tl := b.arr[n][0] + k.wire[n]
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
		tl := b.arr[n][0] + k.wire[n]
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
		a := b.arr[n]
		tl, th := a[0]+k.wire[n], a[1]+k.wire[n]
		if th == neg {
			continue
		}
		needLo, needHi := k.required(clockPS, i, b.hi[i]), k.required(clockPS, i, b.lo[i])
		slackLo := needLo - th
		straddles := slackLo < 0 && needHi-tl >= 0
		if th+(clockPS-needLo) >= maxLo || slackLo <= minHi[k.stage[i]] || straddles {
			k.mark[i] = e
			b.demand(n)
		}
	}
	for _, n := range k.pos {
		if th := b.arr[n][1] + k.wire[n]; th != neg && (th+(clockPS-clockPS) >= maxLo || clockPS-th <= minHi[netlist.StageNone]) {
			b.demand(int32(n))
		}
	}
	k.refine(e, exact)
	// endpoints over the candidates, in its scan order. A flop that is
	// not a candidate violates exactly when its slack upper bound is < 0.
	j := b.nComb
	for _, i := range k.seq {
		n := k.in0[i]
		if k.mark[i] != e {
			if tl := b.arr[n][0] + k.wire[n]; tl != neg && k.required(clockPS, i, b.lo[i])-tl < 0 {
				f.Violators = append(f.Violators, int32(i))
			}
			continue
		}
		for int(b.cells[j]) != i {
			j++
		}
		need := k.required(clockPS, i, b.xs[j])
		t := b.exact(n) + k.wire[n]
		if t == neg {
			continue
		}
		slack := need - t
		f.observe(i, t, need, slack, k.stage[i])
		if slack < 0 {
			f.Violators = append(f.Violators, int32(i))
		}
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
// its exact arrival.
func (k *Kernel) refine(e uint32, exact ExactFunc) {
	b := k.bnd
	neg := math.Inf(-1)
	cells := b.cells[:0]
	for j := len(k.order) - 1; j >= 0; j-- {
		i := k.order[j]
		if k.isTie[i] || !b.demanded(k.out[i]) {
			continue
		}
		in := k.inNet[k.inPtr[i]:k.inPtr[i+1]]
		wl := neg
		for _, n := range in {
			wl = max(wl, b.arr[n][0]+k.wire[n])
		}
		for _, n := range in {
			if b.arr[n][1]+k.wire[n] >= wl {
				b.demand(n)
			}
		}
		cells = append(cells, int32(i))
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
