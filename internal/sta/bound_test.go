package sta

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"vipipe/internal/variation"
)

// sameFloat reports whether a and b are the same float64, any NaN
// matching any NaN.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// exactFrom is the exact callback of a known scale vector; it counts
// the cells it is asked for.
func exactFrom(scale []float64, sent *int) ExactFunc {
	return func(cells []int32, out []float64) {
		*sent += len(cells)
		for j, c := range cells {
			out[j] = scale[c]
		}
	}
}

// sameFrame reports the first field where got differs from want, bit
// for bit, or "" when none does.
func sameFrame(got, want *Frame) string {
	switch {
	case !sameFloat(got.ClockPS, want.ClockPS):
		return "ClockPS"
	case !sameFloat(got.CritPS, want.CritPS):
		return "CritPS"
	case !sameFloat(got.WorstSlack, want.WorstSlack):
		return "WorstSlack"
	case got.Present != want.Present:
		return "Present"
	case len(got.Violators) != len(want.Violators):
		return "Violators"
	}
	for i := range got.Violators {
		if got.Violators[i] != want.Violators[i] {
			return "Violators"
		}
	}
	for s := range got.Lanes {
		g, w := got.Lanes[s], want.Lanes[s]
		if g.Stage != w.Stage || g.Endpoint != w.Endpoint || g.Endpoints != w.Endpoints ||
			!sameFloat(g.WorstSlack, w.WorstSlack) || !sameFloat(g.WorstArr, w.WorstArr) {
			return "Lanes"
		}
	}
	return ""
}

// enclose returns brackets around scale of the given kind: zero-width,
// wide, one-sided on either end, or a per-cell mix of those.
func enclose(rng *rand.Rand, kind string, scale []float64) (lo, hi []float64) {
	lo, hi = make([]float64, len(scale)), make([]float64, len(scale))
	for i, s := range scale {
		k := kind
		if k == "mixed" {
			k = []string{"zero", "wide", "below", "above"}[rng.Intn(4)]
		}
		lo[i], hi[i] = s, s
		switch k {
		case "wide":
			lo[i], hi[i] = s*(1-0.2*rng.Float64()), s*(1+0.2*rng.Float64())
		case "below":
			lo[i] = s * (1 - 0.3*rng.Float64())
		case "above":
			hi[i] = s * (1 + 0.3*rng.Float64())
		}
	}
	return lo, hi
}

// TestBoundRefineMatchesExact locks the bound-then-refine contract:
// results bit-identical to the exact kernel, few cells refined on real
// samples, and no allocations.
func TestBoundRefineMatchesExact(t *testing.T) {
	t.Run("enclosed", testBoundRefineEnclosed)
	t.Run("rebound", testReboundMatchesRerun)
	t.Run("prunes", testBoundRefinePrunes)
	t.Run("zero_alloc", testBoundRefineZeroAlloc)
}

// testBoundRefineEnclosed: for any scale vector inside any enclosing
// brackets, Bound then Crit equals Run and Bound then Frame equals
// RunFrame field by field, bit for bit, at several clocks. The inputs
// include uniform scales (twin endpoints with equal exact slack), the
// core's constant nets (unreachable, -Inf arrivals), tight clocks
// (straddling violators) and a NaN scale (the exact path).
func testBoundRefineEnclosed(t *testing.T) {
	a := coreAnalyzer(t)
	k, ref := NewKernel(a), NewKernel(a)
	n := k.NumCells()
	nominal := a.Run(1e9, nil).CritPS
	rng := rand.New(rand.NewSource(29))
	got, want := &Frame{}, &Frame{}

	twins := twinScale(t, ref, nominal, randScale(rng, n))
	unreachable := 0
	for _, v := range ref.arr {
		if math.IsInf(v, -1) {
			unreachable++
		}
	}
	if unreachable == 0 {
		t.Fatal("the core has no unreachable nets")
	}

	sent := 0
	for trial := 0; trial < 40; trial++ {
		scale := randScale(rng, n)
		if trial%8 == 0 {
			scale = twins
		}
		kind := []string{"zero", "wide", "below", "above", "mixed"}[trial%5]
		lo, hi := enclose(rng, kind, scale)
		if trial == 13 {
			scale = append([]float64(nil), scale...)
			i := k.order[len(k.order)/2]
			scale[i], lo[i], hi[i] = math.NaN(), math.NaN(), math.NaN()
		}
		for _, c := range []float64{0.8, 0.95, 1.0, 1.05, 1.3} {
			clock := nominal * c
			k.Bound(lo, hi)
			if g, w := k.Crit(clock, exactFrom(scale, &sent)), ref.Run(clock, scale); !sameFloat(g, w) {
				t.Fatalf("trial %d (%s) clock %g: Crit %v != Run %v", trial, kind, clock, g, w)
			}
			k.Bound(lo, hi)
			k.Frame(got, clock, exactFrom(scale, &sent))
			ref.RunFrame(want, clock, scale)
			if field := sameFrame(got, want); field != "" {
				t.Fatalf("trial %d (%s) clock %g: Frame.%s differs:\n got %+v\nwant %+v", trial, kind, clock, field, got, want)
			}
		}
	}
}

// twinScale returns base with the scales of two flops' D-pin drivers
// set so that the two are their stage's worst endpoints with equal
// exact slack at clockPS: the tie that Frame must break as RunFrame
// does.
func twinScale(t *testing.T, k *Kernel, clockPS float64, base []float64) []float64 {
	t.Helper()
	driver := map[int32]int{}
	for _, i := range k.order {
		if !k.isTie[i] {
			driver[k.out[i]] = i
		}
	}
	frame := &Frame{}
	for x, i1 := range k.seq {
		for _, i2 := range k.seq[x+1:] {
			n1, n2 := k.in0[i1], k.in0[i2]
			d1, ok1 := driver[n1]
			d2, ok2 := driver[n2]
			if k.stage[i1] != k.stage[i2] || !ok1 || !ok2 || d1 == d2 {
				continue
			}
			scale := append([]float64(nil), base...)
			scale[i1], scale[i2], scale[d1] = 1, 1, 40
			k.Run(clockPS, scale)
			target := k.arr[n1] + k.wire[n1]
			worst := math.Inf(-1)
			for _, n := range k.inNet[k.inPtr[d2]:k.inPtr[d2+1]] {
				worst = max(worst, k.arr[n]+k.wire[n])
			}
			s := (target - k.wire[n2] - worst) / k.base[d2]
			for step := 0; step < 400 && (worst+k.base[d2]*s)+k.wire[n2] != target; step++ {
				if (worst+k.base[d2]*s)+k.wire[n2] < target {
					s = math.Nextafter(s, math.Inf(1))
				} else {
					s = math.Nextafter(s, 0)
				}
			}
			scale[d2] = s
			k.RunFrame(frame, clockPS, scale)
			lane := frame.Lanes[k.stage[i1]]
			slack1 := k.required(clockPS, i1, 1) - (k.arr[n1] + k.wire[n1])
			slack2 := k.required(clockPS, i2, 1) - (k.arr[n2] + k.wire[n2])
			if slack1 == slack2 && slack1 == lane.WorstSlack && s > 0 {
				return scale
			}
		}
	}
	t.Fatal("no two flops could be made twin worst endpoints")
	return nil
}

// testReboundMatchesRerun drives Rebound through 30 rounds of sparse
// bracket changes and demands each Crit match Rerun with the same
// cumulative scales. Half the changed cells are ones the previous
// refine sent to exact (on the critical path), sped up; the others are
// random cells, slowed down: the critical endpoint moves, which stale
// bounds downstream of a change would miss.
func testReboundMatchesRerun(t *testing.T) {
	a := coreAnalyzer(t)
	k, ref := NewKernel(a), NewKernel(a)
	n := k.NumCells()
	clock := a.Run(1e9, nil).CritPS
	rng := rand.New(rand.NewSource(31))
	scale := randScale(rng, n)
	lo, hi := enclose(rng, "mixed", scale)
	sent := 0
	k.Bound(lo, hi)
	k.Crit(clock, exactFrom(scale, &sent))
	ref.Run(clock, scale)
	for round := 0; round < 30; round++ {
		refined := append([]int32(nil), k.bnd.cells...)
		seen := map[int]bool{}
		var dirty []int
		for len(dirty) < 2+rng.Intn(6) {
			i, f := rng.Intn(n), 1+7*rng.Float64()
			if len(dirty)%2 == 0 {
				i, f = int(refined[rng.Intn(len(refined))]), 0.1+0.5*rng.Float64()
			}
			if seen[i] {
				continue
			}
			seen[i] = true
			dirty = append(dirty, i)
			s := scale[i] * f
			scale[i], lo[i], hi[i] = s, s*(1-0.01*rng.Float64()), s*(1+0.01*rng.Float64())
		}
		k.Rebound(lo, hi, dirty)
		got := k.Crit(clock, exactFrom(scale, &sent))
		if want := ref.Rerun(clock, scale, dirty); !sameFloat(got, want) {
			t.Fatalf("round %d (%d dirty): Rebound+Crit %v != Rerun %v", round, len(dirty), got, want)
		}
	}
}

// realSample draws sample k of position B over the kernel's netlist
// and returns its gate lengths, exact scales and 1/64-nm brackets.
func realSample(a *Analyzer, k int) (lg, scale, lo, hi []float64) {
	n := a.NL.NumCells()
	model := variation.Default()
	pos, _ := model.Position("B")
	tech := &a.NL.Lib.Tech
	lg, scale = make([]float64, n), make([]float64, n)
	lo, hi = make([]float64, n), make([]float64, n)
	model.NewSampler(a.PL, pos, 7).Draw(k, lg)
	sc := tech.SampleScaler()
	sc.Scale(scale, lg, nil, nil)
	tech.ScaleBounds().Bracket(lo, hi, lg, nil, nil)
	return lg, scale, lo, hi
}

// testBoundRefinePrunes checks the point of the scheme on real samples
// with table brackets: results stay exact while fewer than 5% of the
// cells go to the exact scaler, for Crit and for Frame.
func testBoundRefinePrunes(t *testing.T) {
	a := coreAnalyzer(t)
	k, ref := NewKernel(a), NewKernel(a)
	n := k.NumCells()
	clock := a.Run(1e9, nil).CritPS
	got, want := &Frame{}, &Frame{}
	for s := 0; s < 8; s++ {
		_, scale, lo, hi := realSample(a, s)
		sent := 0
		k.Bound(lo, hi)
		if g, w := k.Crit(clock, exactFrom(scale, &sent)), ref.Run(clock, scale); !sameFloat(g, w) {
			t.Fatalf("sample %d: Crit %v != Run %v", s, g, w)
		}
		if sent*20 >= n {
			t.Errorf("sample %d: Crit sent %d of %d cells to exact", s, sent, n)
		}
		sent = 0
		k.Bound(lo, hi)
		k.Frame(got, clock, exactFrom(scale, &sent))
		ref.RunFrame(want, clock, scale)
		if field := sameFrame(got, want); field != "" {
			t.Fatalf("sample %d: Frame.%s differs", s, field)
		}
		if sent*20 >= n {
			t.Errorf("sample %d: Frame sent %d of %d cells to exact", s, sent, n)
		}
	}
}

// testBoundRefineZeroAlloc holds Bound, Rebound, Crit and Frame to the
// kernel's zero-allocation contract once their scratch exists.
func testBoundRefineZeroAlloc(t *testing.T) {
	a := coreAnalyzer(t)
	k := NewKernel(a)
	clock := a.Run(1e9, nil).CritPS
	_, scale, lo, hi := realSample(a, 3)
	n := k.NumCells()
	dirty := []int{0, n / 3, n / 2, n - 1}
	sent := 0
	exact := exactFrom(scale, &sent)
	frame := &Frame{}
	k.Bound(lo, hi)
	k.Frame(frame, clock, exact)
	for name, fn := range map[string]func(){
		"Bound+Crit":   func() { k.Bound(lo, hi); k.Crit(clock, exact) },
		"Rebound+Crit": func() { k.Rebound(lo, hi, dirty); k.Crit(clock, exact) },
		"Bound+Frame":  func() { k.Bound(lo, hi); k.Frame(frame, clock, exact) },
	} {
		if allocs := testing.AllocsPerRun(20, fn); allocs != 0 {
			t.Errorf("Kernel %s allocates %v times per call", name, allocs)
		}
	}
}

// TestKernelsShareShapeConcurrently builds kernels over one fresh
// analyzer from several goroutines at once — the first builds race to
// publish the shared structure — and bounds and refines on each.
func TestKernelsShareShapeConcurrently(t *testing.T) {
	a := coreAnalyzer(t)
	clock := a.Run(1e9, nil).CritPS
	_, scale, lo, hi := realSample(a, 5)
	want := a.Run(clock, scale).CritPS
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := NewKernel(a)
			sent := 0
			k.Bound(lo, hi)
			if got := k.Crit(clock, exactFrom(scale, &sent)); !sameFloat(got, want) {
				t.Errorf("concurrent kernel: Crit %v != %v", got, want)
			}
		}()
	}
	wg.Wait()
}

// refineBench is a kernel over the small core with a real sample's
// table brackets bound, and the exact callback of its scales.
func refineBench(b *testing.B) (*Kernel, float64, ExactFunc) {
	a := coreAnalyzer(b)
	k := NewKernel(a)
	_, scale, lo, hi := realSample(a, 3)
	k.Bound(lo, hi)
	sent := 0
	return k, a.Run(1e9, nil).CritPS, exactFrom(scale, &sent)
}

// BenchmarkKernelBound is one full two-bound walk: the per-sample
// bound cost of both Monte Carlo loops.
func BenchmarkKernelBound(b *testing.B) {
	k, _, _ := refineBench(b)
	lo, hi := k.bnd.lo, k.bnd.hi
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Bound(lo, hi)
	}
}

// BenchmarkKernelRefine is the refine after a Bound: candidate
// selection, the demand walk, the exact callback and the exact
// propagation over the demanded nets — in crit mode (yield shards) and
// frame mode (mc.Run).
func BenchmarkKernelRefine(b *testing.B) {
	k, clock, exact := refineBench(b)
	b.Run("crit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += k.Crit(clock, exact)
		}
	})
	frame := &Frame{}
	b.Run("frame", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k.Frame(frame, clock, exact)
		}
	})
}

var benchSink float64
