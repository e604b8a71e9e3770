package density

import (
	"context"
	"math"
	"testing"

	"vipipe/internal/cell"
	"vipipe/internal/gsim"
	"vipipe/internal/netlist"
	"vipipe/internal/stats"
	"vipipe/internal/vex"
	"vipipe/internal/vexsim"
)

func seeds(nl *netlist.Netlist, p, d map[int][2]float64) (prob, dens []float64) {
	prob = make([]float64, nl.NumNets())
	dens = make([]float64, nl.NumNets())
	for n, v := range p {
		prob[n] = v[0]
		dens[n] = v[1]
	}
	_ = d
	return prob, dens
}

func TestXorDensityAddsInputs(t *testing.T) {
	// XOR's Boolean difference w.r.t. each input is 1, so
	// D(out) = D(a) + D(b), regardless of probabilities.
	b := netlist.NewBuilder("t", cell.Default65nm())
	a := b.NL.AddPI("a")
	c := b.NL.AddPI("c")
	x := b.Xor(a, c)
	prob, dens := seeds(b.NL, map[int][2]float64{
		a: {0.3, 0.2},
		c: {0.8, 0.5},
	}, nil)
	res, err := Propagate(b.NL, prob, dens)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Density[x]-0.7) > 1e-12 {
		t.Errorf("xor density = %g, want 0.7", res.Density[x])
	}
	// P(xor=1) = p(1-q) + q(1-p).
	want := 0.3*0.2 + 0.8*0.7
	if math.Abs(res.Prob[x]-want) > 1e-12 {
		t.Errorf("xor prob = %g, want %g", res.Prob[x], want)
	}
}

func TestAndDensityGatedByProbability(t *testing.T) {
	// AND: dF/da = b, so D(out) = P(b) D(a) + P(a) D(b).
	b := netlist.NewBuilder("t", cell.Default65nm())
	a := b.NL.AddPI("a")
	c := b.NL.AddPI("c")
	x := b.And(a, c)
	prob, dens := seeds(b.NL, map[int][2]float64{
		a: {0.25, 0.4},
		c: {0.5, 0.1},
	}, nil)
	res, err := Propagate(b.NL, prob, dens)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5*0.4 + 0.25*0.1
	if math.Abs(res.Density[x]-want) > 1e-12 {
		t.Errorf("and density = %g, want %g", res.Density[x], want)
	}
	if math.Abs(res.Prob[x]-0.125) > 1e-12 {
		t.Errorf("and prob = %g, want 0.125", res.Prob[x])
	}
}

func TestConstantInputKillsDensity(t *testing.T) {
	b := netlist.NewBuilder("t", cell.Default65nm())
	a := b.NL.AddPI("a")
	k := b.Const(false)
	x := b.And(a, k)
	y := b.Or(a, k)
	prob, dens := seeds(b.NL, map[int][2]float64{a: {0.5, 1.0}}, nil)
	res, err := Propagate(b.NL, prob, dens)
	if err != nil {
		t.Fatal(err)
	}
	if res.Density[x] != 0 {
		t.Errorf("AND with constant 0 has density %g", res.Density[x])
	}
	if math.Abs(res.Density[y]-1.0) > 1e-12 {
		t.Errorf("OR with constant 0 has density %g, want 1", res.Density[y])
	}
}

func TestInverterChainPreservesDensity(t *testing.T) {
	b := netlist.NewBuilder("t", cell.Default65nm())
	a := b.NL.AddPI("a")
	n := a
	for i := 0; i < 10; i++ {
		n = b.Not(n)
	}
	prob, dens := seeds(b.NL, map[int][2]float64{a: {0.5, 0.42}}, nil)
	res, err := Propagate(b.NL, prob, dens)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Density[n]-0.42) > 1e-12 {
		t.Errorf("chain density = %g, want 0.42", res.Density[n])
	}
}

func TestDensityUpperBoundsZeroDelaySimOnXorTree(t *testing.T) {
	// A balanced XOR tree is the canonical glitch generator: the
	// zero-delay simulation reports at most 1 toggle per cycle per
	// net, while transition density adds input densities and
	// grows with depth.
	b := netlist.NewBuilder("t", cell.Default65nm())
	ins := b.InputWord("x", 8)
	level := []int(ins)
	for len(level) > 1 {
		var next []int
		for i := 0; i+1 < len(level); i += 2 {
			next = append(next, b.Xor(level[i], level[i+1]))
		}
		level = next
	}
	root := level[0]

	// Simulate with random inputs.
	sim, err := gsim.New(b.NL)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewStream(5)
	for c := 0; c < 400; c++ {
		sim.SetPIWord(ins, uint64(rng.Int63()))
		sim.Step()
	}
	act := sim.Activity()

	est, err := GlitchAwareActivity(b.NL, act)
	if err != nil {
		t.Fatal(err)
	}
	if est[root] <= act[root] {
		t.Errorf("density at XOR root %.3f should exceed zero-delay %.3f", est[root], act[root])
	}
	// Exact relation at the root: density = sum of leaf densities.
	sum := 0.0
	for _, n := range ins {
		sum += act[n]
	}
	if math.Abs(est[root]-sum) > 1e-9 {
		t.Errorf("xor tree root density %.4f, want %.4f", est[root], sum)
	}
}

func TestSequentialSeedsPreserved(t *testing.T) {
	b := netlist.NewBuilder("t", cell.Default65nm())
	d := b.NL.AddPI("d")
	q := b.DFF(d)
	x := b.Not(q)
	sim, err := gsim.New(b.NL)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 50; c++ {
		sim.SetPIWord(netlist.Word{d}, uint64((c+1)%2))
		sim.Step()
	}
	act := sim.Activity()
	est, err := GlitchAwareActivity(b.NL, act)
	if err != nil {
		t.Fatal(err)
	}
	if est[q] != act[q] || est[d] != act[d] {
		t.Error("seed activities must be preserved")
	}
	if math.Abs(est[x]-act[q]) > 1e-12 {
		t.Errorf("inverter density %g, want %g", est[x], act[q])
	}
}

func TestPropagateValidation(t *testing.T) {
	b := netlist.NewBuilder("t", cell.Default65nm())
	b.NL.AddPI("a")
	if _, err := Propagate(b.NL, []float64{0.5}, []float64{0.1, 0.2}); err == nil {
		t.Error("mismatched seeds accepted")
	}
	if _, _, err := SeedsFromSimulation(b.NL, nil); err == nil {
		t.Error("short activity accepted")
	}
}

func TestGlitchEstimateRaisesMuxTreePower(t *testing.T) {
	// On the VEX core with FIR activity, the glitch-aware estimate
	// must raise combinational activity overall — most visibly in
	// the register-file read trees.
	core, err := vex.Build(vex.SmallConfig(), cell.Default65nm())
	if err != nil {
		t.Fatal(err)
	}
	fir, err := vexsim.NewFIR(core.Cfg, 10, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := vexsim.NewTestbench(core, fir.Prog, fir.DMem)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.RunContext(context.Background(), fir.Cycles); err != nil {
		t.Fatal(err)
	}
	act := tb.Activity()
	est, err := GlitchAwareActivity(core.NL, act)
	if err != nil {
		t.Fatal(err)
	}
	var simSum, estSum float64
	for n := range act {
		simSum += act[n]
		estSum += est[n]
	}
	if estSum <= simSum {
		t.Errorf("glitch-aware total activity %.1f not above simulated %.1f", estSum, simSum)
	}
	if estSum > simSum*6 {
		t.Errorf("glitch estimate %.1f implausibly above simulated %.1f", estSum, simSum)
	}
}
