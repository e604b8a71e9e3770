package cell

import "fmt"

// Domain selects one of the two supply voltages of the dual-Vdd
// library.
type Domain uint8

const (
	// DomainLow is the nominal 1.0V supply.
	DomainLow Domain = iota
	// DomainHigh is the boosted 1.2V supply.
	DomainHigh
)

func (d Domain) String() string {
	if d == DomainLow {
		return "VDD_LOW"
	}
	return "VDD_HIGH"
}

// Library is a characterized standard-cell library plus its technology
// parameters.
type Library struct {
	Name  string
	Tech  Tech
	cells [numKinds]*Cell
}

// Cell returns the characterization record for kind k. It panics on an
// invalid kind: asking for a cell the library does not have is a
// programming error in netlist construction.
func (l *Library) Cell(k Kind) *Cell {
	if k == Invalid || int(k) >= len(l.cells) || l.cells[k] == nil {
		panic(fmt.Sprintf("cell: library %q has no cell kind %v", l.Name, k))
	}
	return l.cells[k]
}

// Default65nm returns the synthetic 65nm-class low-power dual-Vdd
// library used throughout the reproduction. The absolute values are
// representative of a 65nm LP process (row height 1.8um, FO4 around
// 25ps at 1.0V, leakage around 1-2% of active power); the paper's
// results depend on ratios, not absolutes.
func Default65nm() *Library {
	lib := &Library{
		Name: "synth65lp",
		Tech: DefaultTech(),
	}
	add := func(c Cell) {
		cc := c
		lib.cells[c.Kind] = &cc
	}

	// Combinational cells.
	// area, inCap, intrinsic, drive, internal energy, leak(1.0V, 1.2V)
	add(Cell{Kind: Inv, Name: "INV", NumInputs: 1, AreaUM2: 1.04, InputCapFF: 1.3, IntrinsicPS: 12, DrivePSPerFF: 0.40, InternalFJ: 0.60, InputFJ: 0.10, LeakNW: [2]float64{1.2, 2.8}})
	add(Cell{Kind: Buf, Name: "BUF", NumInputs: 1, AreaUM2: 1.56, InputCapFF: 1.2, IntrinsicPS: 28, DrivePSPerFF: 0.30, InternalFJ: 1.10, InputFJ: 0.20, LeakNW: [2]float64{1.6, 3.7}})
	add(Cell{Kind: Nand2, Name: "NAND2", NumInputs: 2, AreaUM2: 1.56, InputCapFF: 1.5, IntrinsicPS: 16, DrivePSPerFF: 0.45, InternalFJ: 0.85, InputFJ: 0.18, LeakNW: [2]float64{1.7, 3.9}})
	add(Cell{Kind: Nand3, Name: "NAND3", NumInputs: 3, AreaUM2: 2.08, InputCapFF: 1.6, IntrinsicPS: 22, DrivePSPerFF: 0.52, InternalFJ: 1.10, InputFJ: 0.22, LeakNW: [2]float64{2.2, 5.1}})
	add(Cell{Kind: Nand4, Name: "NAND4", NumInputs: 4, AreaUM2: 2.60, InputCapFF: 1.7, IntrinsicPS: 28, DrivePSPerFF: 0.60, InternalFJ: 1.35, InputFJ: 0.26, LeakNW: [2]float64{2.7, 6.2}})
	add(Cell{Kind: Nor2, Name: "NOR2", NumInputs: 2, AreaUM2: 1.56, InputCapFF: 1.5, IntrinsicPS: 19, DrivePSPerFF: 0.50, InternalFJ: 0.90, InputFJ: 0.18, LeakNW: [2]float64{1.7, 3.9}})
	add(Cell{Kind: Nor3, Name: "NOR3", NumInputs: 3, AreaUM2: 2.08, InputCapFF: 1.6, IntrinsicPS: 27, DrivePSPerFF: 0.60, InternalFJ: 1.15, InputFJ: 0.22, LeakNW: [2]float64{2.2, 5.1}})
	add(Cell{Kind: And2, Name: "AND2", NumInputs: 2, AreaUM2: 2.08, InputCapFF: 1.4, IntrinsicPS: 26, DrivePSPerFF: 0.42, InternalFJ: 1.20, InputFJ: 0.25, LeakNW: [2]float64{2.0, 4.6}})
	add(Cell{Kind: And3, Name: "AND3", NumInputs: 3, AreaUM2: 2.60, InputCapFF: 1.5, IntrinsicPS: 32, DrivePSPerFF: 0.46, InternalFJ: 1.45, InputFJ: 0.30, LeakNW: [2]float64{2.5, 5.8}})
	add(Cell{Kind: Or2, Name: "OR2", NumInputs: 2, AreaUM2: 2.08, InputCapFF: 1.4, IntrinsicPS: 28, DrivePSPerFF: 0.44, InternalFJ: 1.20, InputFJ: 0.25, LeakNW: [2]float64{2.0, 4.6}})
	add(Cell{Kind: Or3, Name: "OR3", NumInputs: 3, AreaUM2: 2.60, InputCapFF: 1.5, IntrinsicPS: 35, DrivePSPerFF: 0.48, InternalFJ: 1.45, InputFJ: 0.30, LeakNW: [2]float64{2.5, 5.8}})
	add(Cell{Kind: Xor2, Name: "XOR2", NumInputs: 2, AreaUM2: 2.86, InputCapFF: 2.2, IntrinsicPS: 35, DrivePSPerFF: 0.55, InternalFJ: 1.90, InputFJ: 0.70, LeakNW: [2]float64{3.0, 6.9}})
	add(Cell{Kind: Xnor2, Name: "XNOR2", NumInputs: 2, AreaUM2: 2.86, InputCapFF: 2.2, IntrinsicPS: 36, DrivePSPerFF: 0.55, InternalFJ: 1.90, InputFJ: 0.70, LeakNW: [2]float64{3.0, 6.9}})
	add(Cell{Kind: Aoi21, Name: "AOI21", NumInputs: 3, AreaUM2: 2.08, InputCapFF: 1.6, IntrinsicPS: 24, DrivePSPerFF: 0.55, InternalFJ: 1.05, InputFJ: 0.25, LeakNW: [2]float64{2.1, 4.8}})
	add(Cell{Kind: Oai21, Name: "OAI21", NumInputs: 3, AreaUM2: 2.08, InputCapFF: 1.6, IntrinsicPS: 25, DrivePSPerFF: 0.55, InternalFJ: 1.05, InputFJ: 0.25, LeakNW: [2]float64{2.1, 4.8}})
	add(Cell{Kind: Mux2, Name: "MUX2", NumInputs: 3, AreaUM2: 2.60, InputCapFF: 1.8, IntrinsicPS: 30, DrivePSPerFF: 0.50, InternalFJ: 1.60, InputFJ: 0.85, LeakNW: [2]float64{2.6, 6.0}})
	add(Cell{Kind: TieLo, Name: "TIELO", NumInputs: 0, AreaUM2: 0.52, InputCapFF: 0, IntrinsicPS: 0, DrivePSPerFF: 0, InternalFJ: 0, LeakNW: [2]float64{0.3, 0.7}})
	add(Cell{Kind: TieHi, Name: "TIEHI", NumInputs: 0, AreaUM2: 0.52, InputCapFF: 0, IntrinsicPS: 0, DrivePSPerFF: 0, InternalFJ: 0, LeakNW: [2]float64{0.3, 0.7}})

	// Sequential cells.
	add(Cell{Kind: DFF, Name: "DFF", NumInputs: 1, AreaUM2: 6.24, InputCapFF: 1.8, IntrinsicPS: 0, DrivePSPerFF: 0.48, InternalFJ: 4.20, InputFJ: 0.50, LeakNW: [2]float64{5.5, 12.7}, Sequential: true, ClkQPS: 85, SetupPS: 45, ClkFJ: 1.30})
	// A Razor flip-flop adds a shadow latch, a comparator and the
	// error-flag logic on top of a plain DFF [Ernst et al., MICRO'03].
	add(Cell{Kind: RazorFF, Name: "RAZORFF", NumInputs: 1, AreaUM2: 13.0, InputCapFF: 2.1, IntrinsicPS: 0, DrivePSPerFF: 0.50, InternalFJ: 7.90, InputFJ: 0.90, LeakNW: [2]float64{11.0, 25.3}, Sequential: true, ClkQPS: 90, SetupPS: 48, ClkFJ: 2.90})

	// Low-to-high level shifter: functionally a buffer, but large and
	// power-hungry. Its output domain is DomainHigh; its input comes
	// from DomainLow. Only low-to-high crossings are shifted (the
	// paper inserts shifters only on nets entering the high-Vdd
	// domain, to avoid static current in not-fully-off pMOS).
	add(Cell{Kind: LvlShift, Name: "LVLSHIFT", NumInputs: 1, AreaUM2: 4.68, InputCapFF: 2.0, IntrinsicPS: 48, DrivePSPerFF: 0.50, InternalFJ: 1.60, InputFJ: 0.30, LeakNW: [2]float64{3.2, 3.2}})

	return lib
}
