package cell

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	if Inv.String() != "INV" || DFF.String() != "DFF" || LvlShift.String() != "LVLSHIFT" {
		t.Error("kind names wrong")
	}
	if Kind(200).String() != "KIND(200)" {
		t.Errorf("out-of-range kind: %s", Kind(200).String())
	}
}

func TestLibraryComplete(t *testing.T) {
	lib := Default65nm()
	for _, k := range Kinds() {
		c := lib.Cell(k)
		if c.Kind != k {
			t.Errorf("cell %v has kind %v", k, c.Kind)
		}
		if c.AreaUM2 <= 0 {
			t.Errorf("cell %v has non-positive area", k)
		}
		if c.NumInputs > 0 && c.InputCapFF <= 0 {
			t.Errorf("cell %v has no input cap", k)
		}
		if c.LeakNW[DomainLow] <= 0 {
			t.Errorf("cell %v has no leakage", k)
		}
		if !c.IsTie() && c.LeakNW[DomainHigh] < c.LeakNW[DomainLow] {
			t.Errorf("cell %v leaks less at high Vdd", k)
		}
	}
	if len(lib.Cells()) != len(Kinds()) {
		t.Errorf("Cells() returned %d, want %d", len(lib.Cells()), len(Kinds()))
	}
}

func TestLibraryPanicsOnInvalidKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Default65nm().Cell(Invalid)
}

// truthTables holds each kind's function as a 2^n-bit constant,
// written from the cell's definition and not from the evaluator: bit
// i is the output for the input combination in which pin p carries
// bit p of i. Sequential kinds evaluate to their data input.
var truthTables = map[Kind]uint16{
	Inv:      0b01,
	Buf:      0b10,
	LvlShift: 0b10,
	DFF:      0b10,
	RazorFF:  0b10,
	Nand2:    0b0111,
	Nand3:    0x7F,
	Nand4:    0x7FFF,
	Nor2:     0b0001,
	Nor3:     0x01,
	And2:     0b1000,
	And3:     0x80,
	Or2:      0b1110,
	Or3:      0xFE,
	Xor2:     0b0110,
	Xnor2:    0b1001,
	Aoi21:    0x07, // !(a*b + c): 1 only while c=0 and not a*b
	Oai21:    0x1F, // !((a+b) * c): 0 only for c=1 with a or b
	Mux2:     0xCA, // sel ? b : a
	TieLo:    0b0,
	TieHi:    0b1,
}

// TestEvalTruthTables checks every library kind on every input
// combination, through Cell.Eval and through one EvalCells list that
// holds all combinations at once. In the list, a cell's unused input
// slots point at a net driven to 0 and then to 1, so a kind that reads
// past its arity fails.
func TestEvalTruthTables(t *testing.T) {
	lib := Default65nm()
	for _, k := range Kinds() {
		c := lib.Cell(k)
		table, ok := truthTables[k]
		if !ok {
			t.Errorf("%v: no truth table", k)
			continue
		}
		if c.NumInputs > MaxInputs {
			t.Fatalf("%v: %d inputs, MaxInputs is %d", k, c.NumInputs, MaxInputs)
		}
		combos := 1 << c.NumInputs
		for i := 0; i < combos; i++ {
			in := make([]bool, c.NumInputs)
			for p := range in {
				in[p] = i>>p&1 == 1
			}
			if got, want := c.Eval(in), table>>i&1 == 1; got != want {
				t.Errorf("%v(%v) = %v, want %v", k, in, got, want)
			}
		}

		// Nets: 0 and 1 are constants, 2 the unused-slot net, then one
		// output per combination.
		kinds := make([]Kind, combos)
		pins := make([][MaxInputs]int32, combos)
		outs := make([]int32, combos)
		for i := range kinds {
			kinds[i] = k
			for p := range pins[i] {
				pins[i][p] = 2
				if p < c.NumInputs {
					pins[i][p] = int32(i >> p & 1)
				}
			}
			outs[i] = int32(3 + i)
		}
		for _, unused := range []bool{false, true} {
			vals := make([]bool, 3+combos)
			vals[1], vals[2] = true, unused
			EvalCells(kinds, pins, outs, vals)
			for i := 0; i < combos; i++ {
				if got, want := vals[3+i], table>>i&1 == 1; got != want {
					t.Errorf("%v: EvalCells input %0*b (unused slots %v) = %v, want %v", k, c.NumInputs, i, unused, got, want)
				}
			}
		}
	}
}

func TestEvalPanicsOnArityMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Default65nm().Cell(Nand2).Eval([]bool{true})
}

func TestDeMorganProperty(t *testing.T) {
	lib := Default65nm()
	nand, and2, inv := lib.Cell(Nand2), lib.Cell(And2), lib.Cell(Inv)
	nor, or2 := lib.Cell(Nor2), lib.Cell(Or2)
	f := func(a, b bool) bool {
		in := []bool{a, b}
		okNand := nand.Eval(in) == inv.Eval([]bool{and2.Eval(in)})
		okNor := nor.Eval(in) == inv.Eval([]bool{or2.Eval(in)})
		okAoi := lib.Cell(Aoi21).Eval([]bool{a, b, false}) == nand.Eval(in)
		return okNand && okNor && okAoi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTechDefaultsValid(t *testing.T) {
	tech := DefaultTech()
	if err := tech.Validate(); err != nil {
		t.Fatal(err)
	}
	if tech.Vdd(DomainLow) != 1.0 || tech.Vdd(DomainHigh) != 1.2 {
		t.Error("supplies wrong")
	}
}

func TestTechValidateCatchesBadParams(t *testing.T) {
	mods := []func(*Tech){
		func(t *Tech) { t.VddHigh = 0.9 },
		func(t *Tech) { t.VddLow = -1 },
		func(t *Tech) { t.Vth0 = 1.5 },
		func(t *Tech) { t.Alpha = 3 },
		func(t *Tech) { t.LgateNM = 0 },
		func(t *Tech) { t.SubthermalV = 0 },
		func(t *Tech) { t.RowHeightUM = 0 },
	}
	for i, m := range mods {
		tech := DefaultTech()
		m(&tech)
		if err := tech.Validate(); err == nil {
			t.Errorf("mod %d: invalid tech accepted", i)
		}
	}
}

func TestVthEffBehaviour(t *testing.T) {
	tech := DefaultTech()
	vthNom := tech.VthEff(1.0, 65)
	if vthNom <= 0 || vthNom >= tech.Vth0 {
		t.Errorf("nominal Vth %g out of range (0, Vth0)", vthNom)
	}
	// Longer channel -> higher Vth (paper: increase of Lgate causes
	// an increase of Vth).
	if tech.VthEff(1.0, 70) <= vthNom {
		t.Error("Vth should rise with Lgate")
	}
	// Higher Vdd -> lower Vth (DIBL).
	if tech.VthEff(1.2, 65) >= vthNom {
		t.Error("Vth should drop with Vdd")
	}
}

func TestDelayScaleNominalIsOne(t *testing.T) {
	tech := DefaultTech()
	if s := tech.DelayScale(tech.VddLow, tech.LgateNM); math.Abs(s-1) > 1e-12 {
		t.Fatalf("nominal delay scale = %g, want 1", s)
	}
}

func TestDelayScaleDirections(t *testing.T) {
	tech := DefaultTech()
	// Longer gate -> slower.
	if tech.DelayScale(1.0, 68) <= 1 {
		t.Error("longer gate should be slower")
	}
	// Shorter gate -> faster.
	if tech.DelayScale(1.0, 62) >= 1 {
		t.Error("shorter gate should be faster")
	}
	// Higher Vdd -> faster.
	boost := tech.SpeedupHighVdd()
	if boost >= 1 {
		t.Errorf("high-Vdd speedup %g should be < 1", boost)
	}
	// The paper compensates a ~10% frequency degradation with the
	// 1.0->1.2V boost, so the boost must buy at least that much.
	if boost > 0.92 {
		t.Errorf("high-Vdd boost %g too weak to compensate 10%% slowdown", boost)
	}
	if boost < 0.80 {
		t.Errorf("high-Vdd boost %g implausibly strong", boost)
	}
}

func TestDelayScaleLgateExponent(t *testing.T) {
	// At fixed voltage the L dependence must be L^1.5 (paper Eq. 3)
	// modulated only by the weak DIBL term.
	tech := DefaultTech()
	tech.AlphaDIBL = 1000 // kill DIBL entirely: exp(-1000*L) = 0
	s := tech.DelayScale(1.0, 65*1.1)
	if math.Abs(s-math.Pow(1.1, 1.5)) > 1e-9 {
		t.Errorf("delay scale %g, want %g", s, math.Pow(1.1, 1.5))
	}
}

func TestLeakScaleDirections(t *testing.T) {
	tech := DefaultTech()
	if s := tech.LeakScale(1.0, tech.LgateNM); math.Abs(s-1) > 1e-12 {
		t.Errorf("nominal leak scale = %g, want 1", s)
	}
	if tech.LeakScale(1.0, 60) <= 1 {
		t.Error("shorter channel should leak more")
	}
	if tech.LeakScale(1.0, 70) >= 1 {
		t.Error("longer channel should leak less")
	}
}

func TestEnergyScale(t *testing.T) {
	tech := DefaultTech()
	if tech.EnergyScale(DomainLow) != 1 {
		t.Error("low-domain energy scale must be 1")
	}
	if math.Abs(tech.EnergyScale(DomainHigh)-1.44) > 1e-12 {
		t.Errorf("high-domain energy scale = %g, want 1.44", tech.EnergyScale(DomainHigh))
	}
}

// Property: delay scale is monotone increasing in Lgate and decreasing
// in Vdd over the physical range.
func TestDelayScaleMonotoneProperty(t *testing.T) {
	tech := DefaultTech()
	f := func(a, b uint8) bool {
		l1 := 55 + float64(a%30)/2 // 55..70nm
		l2 := 55 + float64(b%30)/2
		if l1 > l2 {
			l1, l2 = l2, l1
		}
		if tech.DelayScale(1.0, l1) > tech.DelayScale(1.0, l2)+1e-12 {
			return false
		}
		v1 := 0.9 + float64(a%40)/100 // 0.9..1.3V
		v2 := 0.9 + float64(b%40)/100
		if v1 > v2 {
			v1, v2 = v2, v1
		}
		return tech.DelayScale(v1, 65) >= tech.DelayScale(v2, 65)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLevelShifterFlags(t *testing.T) {
	lib := Default65nm()
	if !lib.Cell(LvlShift).IsLevelShifter() {
		t.Error("LVLSHIFT not flagged")
	}
	if lib.Cell(Buf).IsLevelShifter() {
		t.Error("BUF flagged as level shifter")
	}
	if !lib.Cell(TieHi).IsTie() || lib.Cell(Inv).IsTie() {
		t.Error("tie flags wrong")
	}
}

func TestDomainString(t *testing.T) {
	if DomainLow.String() != "VDD_LOW" || DomainHigh.String() != "VDD_HIGH" {
		t.Error("domain names wrong")
	}
}

func TestRazorCostlierThanDFF(t *testing.T) {
	lib := Default65nm()
	dff, rz := lib.Cell(DFF), lib.Cell(RazorFF)
	if rz.AreaUM2 <= dff.AreaUM2 || rz.InternalFJ <= dff.InternalFJ || rz.LeakNW[0] <= dff.LeakNW[0] {
		t.Error("Razor FF must cost more than a plain DFF")
	}
}

// scalerInputs returns the gate lengths the scaler contract is checked
// on, by set: a dense sweep of the realistic range, seeded random
// lengths over [1, 200] nm, and edge inputs on both sides of exactPow's
// domain bounds and of the overdrive clamp.
func scalerInputs(random int) map[string][]float64 {
	var dense []float64
	for i := 0; i <= 20*1024; i++ {
		dense = append(dense, 55+float64(i)/1024)
	}
	rng := rand.New(rand.NewSource(12))
	rnd := make([]float64, random)
	for i := range rnd {
		rnd[i] = 1 + 199*rng.Float64()
	}
	lnom := DefaultTech().LgateNM
	edge := []float64{
		0, math.Copysign(0, -1), -1, -65, -1e4, -math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, 1e-310, 0x1p-1022, // subnormal lr
		1e200, 1e300, math.MaxFloat64, // huge lr
		400, 1e4, // long channels: the clamped overdrive of clampTech
	}
	for _, b := range []float64{0x1p-500, 0x1p500} {
		lg := lnom * b
		edge = append(edge, math.Nextafter(lg, 0), lg, math.Nextafter(lg, math.Inf(1)))
	}
	// Ratios whose 1.5th power is subnormal: math.Pow rounds twice
	// there, so the fast path must not take them.
	for i := 0; i < 4096; i++ {
		edge = append(edge, lnom*math.Ldexp(1+rng.Float64(), -715+rng.Intn(34)))
	}
	return map[string][]float64{"dense": dense, "random": rnd, "edge": edge}
}

// scalerTechs returns the technologies the scaler contracts are checked
// on, for one Alpha: the default and one whose VddLow overdrive falls
// below the 0.01 clamp.
func scalerTechs(alpha float64) []Tech {
	def, clamp := DefaultTech(), DefaultTech()
	clamp.Vth0 = 0.995
	def.Alpha, clamp.Alpha = alpha, alpha
	return []Tech{def, clamp}
}

// scalerAlphas are the Alphas the scaler contracts are checked at: the
// exact-power path (Alpha in (1, 1.5]) and the math.Pow fallback.
var scalerAlphas = []float64{1.0, 1.25, 1.3, 1.5, 1.7, 2.0}

// scalerRandom is the size of the random input set at alpha: 2^20 at
// the paper's Alpha, the Monte Carlo hot path.
func scalerRandom(alpha float64) int {
	if alpha == 1.3 {
		return 1 << 20
	}
	return 1 << 16
}

// sameBits reports whether a and b are the same float64, any NaN
// matching any NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestDelayScalerBitIdentical locks the fast-path contract: DelayScaler
// reproduces DelayScale bit for bit at both supplies — on the
// exact-power path and on the math.Pow fallback (the other Alphas, and
// inputs outside exactPow's domain).
func TestDelayScalerBitIdentical(t *testing.T) {
	for _, alpha := range scalerAlphas {
		inputs := scalerInputs(scalerRandom(alpha))
		for _, tech := range scalerTechs(alpha) {
			lo, hi := tech.DelayScaler(tech.VddLow), tech.DelayScaler(tech.VddHigh)
			for set, lgs := range inputs {
				for _, lg := range lgs {
					wantLo, wantHi := tech.DelayScale(tech.VddLow, lg), tech.DelayScale(tech.VddHigh, lg)
					if !sameBits(lo(lg), wantLo) || !sameBits(hi(lg), wantHi) {
						t.Fatalf("alpha=%g vth0=%g %s lg=%v: scalers %v/%v, DelayScale %v/%v",
							alpha, tech.Vth0, set, lg, lo(lg), hi(lg), wantLo, wantHi)
					}
				}
			}
		}
	}
}

// TestSampleScalerBitIdentical locks the block scaler's contract: Scale
// (with and without derate, with nil, mixed and all-high domains) and
// ScaleCells reproduce DelayScale(vdd, lg) * derate bit for bit on every input set, every
// checked Alpha and both technologies; they touch nothing past the
// column and allocate nothing. The lengths exercise empty, partial,
// exact and full-core block tilings.
func TestSampleScalerBitIdentical(t *testing.T) {
	lengths := []int{0, 1, 255, 256, 257, 29481}
	const guard = -7.0 // sentinel just past every output column
	for _, alpha := range scalerAlphas {
		inputs := scalerInputs(scalerRandom(alpha))
		// One column holding every set, edge inputs first, cut at
		// each length.
		col := append(append(append([]float64(nil), inputs["edge"]...), inputs["dense"]...), inputs["random"]...)
		rng := rand.New(rand.NewSource(int64(alpha * 100)))
		derate := make([]float64, len(col))
		domains := make([]Domain, len(col))
		high := make([]Domain, len(col))
		for i := range col {
			derate[i] = 0.8 + 0.4*rng.Float64()
			domains[i] = Domain(rng.Intn(2))
			high[i] = DomainHigh
		}
		for _, tech := range scalerTechs(alpha) {
			sc := tech.SampleScaler()
			// Reference columns: at VddLow, at VddHigh, and per domain.
			wantLo := make([]float64, len(col))
			wantHi := make([]float64, len(col))
			wantDom := make([]float64, len(col))
			for i, lg := range col {
				wantLo[i], wantHi[i] = tech.DelayScale(tech.VddLow, lg), tech.DelayScale(tech.VddHigh, lg)
				wantDom[i] = tech.DelayScale(tech.Vdd(domains[i]), lg)
			}
			out := make([]float64, len(col)+1)
			for _, n := range append(lengths, len(col)) {
				lg := col[:n]
				check := func(call string, got, ref, d []float64) {
					t.Helper()
					for i := 0; i < n; i++ {
						w := ref[i]
						if d != nil {
							w *= d[i]
						}
						if !sameBits(got[i], w) {
							t.Fatalf("alpha=%g vth0=%g n=%d %s cell %d lg=%v: got %v, want %v",
								alpha, tech.Vth0, n, call, i, col[i], got[i], w)
						}
					}
					if got[n] != guard {
						t.Fatalf("alpha=%g n=%d %s wrote past the column", alpha, n, call)
					}
				}
				for _, d := range [][]float64{nil, derate[:n]} {
					name := fmt.Sprintf("derate=%t", d != nil)
					out[n] = guard
					sc.Scale(out, lg, d, nil)
					check("Scale "+name, out, wantLo, d)
					sc.Scale(out, lg, d, domains[:n])
					check("Scale domains "+name, out, wantDom, d)
					sc.Scale(out, lg, d, high[:n])
					check("Scale high "+name, out, wantHi, d)
				}
				// ScaleCells over the first n cells in reverse: out[j]
				// is cell n-1-j's scale.
				cells := make([]int32, n)
				for j := range cells {
					cells[j] = int32(n - 1 - j)
				}
				sc.ScaleCells(out, cells, col, derate, domains)
				for j, c := range cells {
					if w := wantDom[c] * derate[c]; !sameBits(out[j], w) {
						t.Fatalf("alpha=%g n=%d ScaleCells cell %d: got %v, want %v", alpha, n, c, out[j], w)
					}
				}
			}
			n := 29481
			for name, fn := range map[string]func(){
				"Scale": func() { sc.Scale(out, col[:n], derate[:n], domains[:n]) },
				"ScaleCells": func() {
					sc.ScaleCells(out, []int32{0, int32(n - 1), int32(n / 2)}, col, derate, domains)
				},
			} {
				if allocs := testing.AllocsPerRun(5, fn); allocs != 0 {
					t.Errorf("SampleScaler.%s allocates %v times per call", name, allocs)
				}
			}
		}
	}
}

// TestScaleBoundsEnclose locks the bracket contract: lo <= exact <= hi
// for every cell, where exact is SampleScaler.Scale's value, on every
// scaler input set plus the table's grid points and their neighbours,
// every checked Alpha and both technologies, derates nil, random in
// [1, 12], 0, -1 and NaN, and nil or mixed domains. A tabulated
// bracket keeps one grid step of gate length as slack on each side:
// lo <= exact(L - step) and exact(L + step) <= hi, the margin that
// absorbs the rounding of the exact chain. A cell outside the
// table, with a non-finite gate length or with a bad derate gets lo, hi
// and exact with equal bits; so does every cell of a Tech whose scale
// need not grow with L, or whose table is not increasing. Bracket
// allocates nothing.
func TestScaleBoundsEnclose(t *testing.T) {
	lnom := DefaultTech().LgateNM
	var grid []float64
	for l := boundLo * lnom; l <= boundHi*lnom; l += boundStep {
		grid = append(grid, l, math.Nextafter(l, 0), math.Nextafter(l, math.Inf(1)),
			math.Nextafter(math.Nextafter(l, 0), 0), math.Nextafter(math.Nextafter(l, math.Inf(1)), math.Inf(1)))
	}
	for _, alpha := range scalerAlphas {
		inputs := scalerInputs(1 << 12)
		col := append(append(append(append([]float64(nil), inputs["edge"]...), inputs["dense"]...), inputs["random"]...), grid...)
		n := len(col)
		rng := rand.New(rand.NewSource(int64(alpha * 1000)))
		domains := make([]Domain, n)
		for i := range domains {
			domains[i] = Domain(rng.Intn(2))
		}
		derates := map[string][]float64{"nil": nil}
		for name, fill := range map[string]func() float64{
			"random": func() float64 { return 1 + 11*rng.Float64() },
			"zero":   func() float64 { return 0 },
			"minus1": func() float64 { return -1 },
			"nan":    math.NaN,
		} {
			d := make([]float64, n)
			for i := range d {
				d[i] = fill()
			}
			derates[name] = d
		}
		techs := scalerTechs(alpha)
		dibl, nan := DefaultTech(), DefaultTech()
		dibl.Alpha, nan.Alpha = alpha, alpha
		dibl.AlphaDIBL = -0.15
		nan.Vth0 = math.NaN()
		techs = append(techs, dibl, nan)
		exact, lo, hi := make([]float64, n), make([]float64, n), make([]float64, n)
		below, above := make([]float64, n), make([]float64, n)
		colBelow, colAbove := make([]float64, n), make([]float64, n)
		for i, l := range col {
			colBelow[i], colAbove[i] = l-boundStep, l+boundStep
		}
		for ti, tech := range techs {
			sc, b := tech.SampleScaler(), tech.ScaleBounds()
			if tabulated := b.lim > 0; tabulated != (ti < 2) {
				t.Fatalf("alpha=%g tech %d: tabulated=%t", alpha, ti, tabulated)
			}
			for dname, d := range derates {
				for _, dom := range [][]Domain{nil, domains} {
					sc.Scale(exact, col, d, dom)
					sc.Scale(below, colBelow, d, dom)
					sc.Scale(above, colAbove, d, dom)
					b.Bracket(lo, hi, col, d, dom)
					for i, l := range col {
						di := 1.0
						if d != nil {
							di = d[i]
						}
						x := (l - b.l0) / boundStep
						inTable := x >= 1 && x < b.lim && di >= 0 && !math.IsInf(di, 1)
						ok := lo[i] <= below[i] && below[i] <= exact[i] && exact[i] <= above[i] && above[i] <= hi[i]
						if !inTable {
							ok = sameBits(lo[i], exact[i]) && sameBits(hi[i], exact[i])
						}
						if !ok {
							t.Fatalf("alpha=%g tech %d derate=%s domains=%t lg=%v: bracket [%v, %v], exact %v, one step off %v/%v (in table: %t)",
								alpha, ti, dname, dom != nil, l, lo[i], hi[i], exact[i], below[i], above[i], inTable)
						}
					}
				}
			}
			if allocs := testing.AllocsPerRun(5, func() { b.Bracket(lo, hi, col, derates["random"], domains) }); allocs != 0 {
				t.Errorf("ScaleBounds.Bracket allocates %v times per call", allocs)
			}
		}
	}
}

// TestScaleBoundsConcurrent builds the tables of a Tech no other test
// uses from several goroutines at once: every caller gets one shared
// ScaleBounds, and brackets agree.
func TestScaleBoundsConcurrent(t *testing.T) {
	tech := DefaultTech()
	tech.LgateNM = 64.5
	lg := scaleBenchInputs()
	got := make([]*ScaleBounds, 4)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := tech.ScaleBounds()
			lo, hi := make([]float64, len(lg)), make([]float64, len(lg))
			b.Bracket(lo, hi, lg, nil, nil)
			got[w] = b
		}(w)
	}
	wg.Wait()
	for w, b := range got {
		if b != tech.ScaleBounds() {
			t.Errorf("goroutine %d got its own tables", w)
		}
	}
}

// scaleBenchInputs is a realistic spread of sampled gate lengths.
func scaleBenchInputs() []float64 {
	rng := rand.New(rand.NewSource(5))
	lgs := make([]float64, 4096)
	for i := range lgs {
		lgs[i] = 65 * (1 + 0.03*rng.NormFloat64())
	}
	return lgs
}

var scaleSink float64

// BenchmarkDelayScale is the reference cost per cell: three math.Pow
// and one math.Exp.
func BenchmarkDelayScale(b *testing.B) {
	tech := DefaultTech()
	lgs := scaleBenchInputs()
	for i := 0; i < b.N; i++ {
		scaleSink += tech.DelayScale(tech.VddLow, lgs[i&4095])
	}
}

// BenchmarkDelayScaler is the per-cell cost of a cell-at-a-time loop.
func BenchmarkDelayScaler(b *testing.B) {
	tech := DefaultTech()
	scaler := tech.DelayScaler(tech.VddLow)
	lgs := scaleBenchInputs()
	for i := 0; i < b.N; i++ {
		scaleSink += scaler(lgs[i&4095])
	}
}

// BenchmarkSampleScaler is the per-cell cost of the Monte Carlo loops:
// Scale over a full-core column of 29,481 cells, reported as ns/cell.
func BenchmarkSampleScaler(b *testing.B) {
	tech := DefaultTech()
	sc := tech.SampleScaler()
	lgs := scaleBenchInputs()
	col := make([]float64, 29481)
	for i := range col {
		col[i] = lgs[i&4095]
	}
	out := make([]float64, len(col))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Scale(out, col, nil, nil)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(col)), "ns/cell")
}

// BenchmarkScaleBounds is the per-cell cost of bracketing a sample:
// Bracket over the same 29,481-cell column, reported as ns/cell.
func BenchmarkScaleBounds(b *testing.B) {
	tech := DefaultTech()
	sb := tech.ScaleBounds()
	lgs := scaleBenchInputs()
	col := make([]float64, 29481)
	for i := range col {
		col[i] = lgs[i&4095]
	}
	lo, hi := make([]float64, len(col)), make([]float64, len(col))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb.Bracket(lo, hi, col, nil, nil)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(col)), "ns/cell")
}
