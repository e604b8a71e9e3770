package sta

import (
	"math"

	"vipipe/internal/netlist"
)

// Kernel is the structure-of-arrays fast path for Monte Carlo inner
// loops: it re-times the netlist with zero per-sample allocation and
// returns only what the sampling engines need — the critical path
// length, or a Frame — instead of materializing a full Report. It runs
// the same arrival walk and endpoint scan as Analyzer.RunInto, so its
// results are bit-identical to the Report's for the same clock and
// scale vector.
//
// Rerun is the incremental half: after a full Run, a sparse set of
// cells with changed scales re-propagates only the affected cone of
// the timing graph, which is how overlay-perturbed statistics cost a
// fraction of a full analysis per sample.
//
// Bound, Rebound, Crit and Frame (bound.go) time a sample from scale
// brackets instead, asking for exact scales only where the brackets
// cannot decide the result; they return Run's and RunFrame's bits.
//
// A Kernel is NOT safe for concurrent use: it owns its arrival
// buffer. Build one per worker. The first kernel of an analyzer
// flattens its timing graph, O(cells + nets); every later kernel
// shares that read-only structure and allocates only its own buffers.
type Kernel struct {
	// shape is the analyzer's read-only timing structure; the slices
	// share their backing arrays with every kernel of the analyzer.
	shape

	arr   []float64
	frame Frame // Run's and Rerun's endpoint summary
	mark  []uint32
	epoch uint32

	bnd *bounds // bound-then-refine scratch (bound.go)
}

// shape is the flattened timing structure of an analyzer.
type shape struct {
	a *Analyzer // the analyzer the structure flattens

	order []int     // comb topological order (shared with the Analyzer)
	base  []float64 // nominal instance delays (shared)
	setup []float64 // nominal setup times (shared)
	wire  []float64 // per-net wire delays (shared)

	pis  []int     // primary-input nets (shared)
	pos  []int     // primary-output nets (shared)
	seq  []int     // sequential instances, index order
	ones []float64 // the nominal scale vector: x*1 == x, so it times nil scales

	out   []int32 // driven net per instance
	in0   []int32 // first input net per instance (endpoint net of a flop)
	isTie []bool
	isSeq []bool
	stage []netlist.Stage // pipeline stage per instance

	// Input nets per instance, CSR over all instances.
	inPtr []int32
	inNet []int32

	// Combinational non-tie sinks per net, CSR: the mark targets of
	// incremental re-propagation.
	snkPtr  []int32
	snkInst []int32
}

// NewKernel returns a kernel over a prepared analyzer. The kernel
// aliases the analyzer's characterized delay tables; re-characterizing
// the analyzer (Refresh) orphans the kernel, so build kernels after
// the netlist is final.
func NewKernel(a *Analyzer) *Kernel {
	s := a.timingShape()
	return &Kernel{shape: *s, mark: make([]uint32, len(s.out))}
}

// timingShape returns the analyzer's flattened timing structure,
// built on first use.
func (a *Analyzer) timingShape() *shape {
	s := a.shape.Load()
	if s == nil {
		// Concurrent first calls may both build; the shapes are equal.
		s = newShape(a)
		a.shape.Store(s)
	}
	return s
}

func newShape(a *Analyzer) *shape {
	nl := a.NL
	nCells := nl.NumCells()
	nNets := nl.NumNets()
	k := &shape{
		a:     a,
		order: a.order,
		base:  a.baseDelay,
		setup: a.setup,
		wire:  a.wire,
		pis:   nl.PIs,
		pos:   nl.POs,
		out:   make([]int32, nCells),
		in0:   make([]int32, nCells),
		isTie: make([]bool, nCells),
		isSeq: make([]bool, nCells),
		stage: make([]netlist.Stage, nCells),
		inPtr: make([]int32, nCells+1),
		ones:  make([]float64, nCells),
	}
	nIn := 0
	for i := 0; i < nCells; i++ {
		inst := &nl.Insts[i]
		c := nl.Cell(i)
		k.ones[i] = 1
		k.out[i] = int32(inst.Out)
		if len(inst.Inputs) > 0 {
			k.in0[i] = int32(inst.Inputs[0])
		} else {
			k.in0[i] = -1
		}
		k.isTie[i] = c.IsTie()
		k.isSeq[i] = c.Sequential
		k.stage[i] = inst.Stage
		if c.Sequential {
			k.seq = append(k.seq, i)
		}
		nIn += len(inst.Inputs)
	}
	k.inNet = make([]int32, 0, nIn)
	for i := 0; i < nCells; i++ {
		k.inPtr[i] = int32(len(k.inNet))
		for _, n := range nl.Insts[i].Inputs {
			k.inNet = append(k.inNet, int32(n))
		}
	}
	k.inPtr[nCells] = int32(len(k.inNet))

	k.snkPtr = make([]int32, nNets+1)
	nSnk := 0
	for n := 0; n < nNets; n++ {
		for _, s := range nl.Nets[n].Sinks {
			if !k.isSeq[s.Inst] && !k.isTie[s.Inst] {
				nSnk++
			}
		}
	}
	k.snkInst = make([]int32, 0, nSnk)
	for n := 0; n < nNets; n++ {
		k.snkPtr[n] = int32(len(k.snkInst))
		for _, s := range nl.Nets[n].Sinks {
			if !k.isSeq[s.Inst] && !k.isTie[s.Inst] {
				k.snkInst = append(k.snkInst, int32(s.Inst))
			}
		}
	}
	k.snkPtr[nNets] = int32(len(k.snkInst))
	return k
}

// NumCells returns the instance count the kernel times.
func (k *Kernel) NumCells() int { return len(k.out) }

// Run performs a full timing analysis and returns the critical path
// length — bit-identical to Report.CritPS from Analyzer.RunInto at
// the same clock and scale. scale must have NumCells entries. The
// arrival state is retained for a subsequent Rerun.
func (k *Kernel) Run(clockPS float64, scale []float64) float64 {
	k.RunFrame(&k.frame, clockPS, scale)
	return k.frame.CritPS
}

// arrivals returns the retained arrival buffer, allocated on first
// use: a kernel that only bounds and refines never needs it.
func (k *Kernel) arrivals() []float64 {
	if k.arr == nil {
		k.arr = make([]float64, k.NumNets())
	}
	return k.arr
}

// propagate performs the full arrival propagation for a scale vector
// into arr, one entry per net.
func (s *shape) propagate(arr, scale []float64) {
	neg := math.Inf(-1)
	for n := range arr {
		arr[n] = neg
	}
	for _, n := range s.pis {
		arr[n] = 0
	}
	for _, i := range s.seq {
		arr[s.out[i]] = s.base[i] * scale[i]
	}
	for _, i := range s.order {
		if s.isTie[i] {
			continue
		}
		worst := neg
		for _, n := range s.inNet[s.inPtr[i]:s.inPtr[i+1]] {
			if t := arr[n] + s.wire[n]; t > worst {
				worst = t
			}
		}
		if worst == neg {
			arr[s.out[i]] = neg
			continue
		}
		arr[s.out[i]] = worst + s.base[i]*scale[i]
	}
}

// Rerun updates the retained analysis after a sparse scale change and
// returns the new critical path, bit-identical to a full Run with the
// same scale. dirty lists every instance whose scale entry differs
// from the previous Run/Rerun; arrival times re-propagate only from
// those cells through their affected fanout cones, then all endpoints
// re-evaluate (endpoints are cheap, and flop setup scaling makes every
// endpoint clock-sensitive anyway).
func (k *Kernel) Rerun(clockPS float64, scale []float64, dirty []int) float64 {
	arr := k.arrivals()
	neg := math.Inf(-1)
	k.epoch++
	e := k.epoch
	for _, i := range dirty {
		switch {
		case k.isSeq[i]:
			nv := k.base[i] * scale[i]
			if nv != arr[k.out[i]] {
				arr[k.out[i]] = nv
				k.markSinks(k.out[i], e)
			}
		case k.isTie[i]:
			// Constants do not launch paths; scale is irrelevant.
		default:
			k.mark[i] = e
		}
	}
	for _, i := range k.order {
		if k.mark[i] != e {
			continue
		}
		worst := neg
		for _, n := range k.inNet[k.inPtr[i]:k.inPtr[i+1]] {
			if t := arr[n] + k.wire[n]; t > worst {
				worst = t
			}
		}
		nv := worst + k.base[i]*scale[i]
		if worst == neg {
			nv = neg
		}
		if nv != arr[k.out[i]] {
			arr[k.out[i]] = nv
			k.markSinks(k.out[i], e)
		}
	}
	k.endpoints(&k.frame, nil, arr, clockPS, scale)
	return k.frame.CritPS
}

// markSinks stamps the combinational non-tie loads of net n for
// re-evaluation; they all sit later in topological order than the
// change that marked them.
func (k *Kernel) markSinks(n int32, e uint32) {
	for _, j := range k.snkInst[k.snkPtr[n]:k.snkPtr[n+1]] {
		k.mark[j] = e
	}
}
