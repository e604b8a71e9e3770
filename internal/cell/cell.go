// Package cell models a synthetic 65nm-class dual-Vdd standard-cell
// library. It substitutes for the STMicroelectronics 65nm 1V low-power
// library used in the paper: each cell carries area, a load-dependent
// linear delay model, input capacitance, internal switching energy and
// leakage characterized at both supply voltages (1.0V and 1.2V).
//
// Delay dependence on supply voltage and effective gate length follows
// the paper's own analytical models:
//
//	D ~ Lgate^1.5 * Vdd / (Vdd - Vth)^alpha       (paper Eq. 3, alpha-power)
//	VthEff = Vth0 - Vdd * exp(-alphaDIBL * Leff)  (paper Eq. 4, DIBL)
//
// with alpha = 1.3, Vth0 = 0.22V and alphaDIBL = 0.15 as in the paper.
package cell

import "fmt"

// Kind identifies a library cell type.
type Kind uint8

// Library cell kinds. All combinational cells have a single output.
const (
	Invalid Kind = iota
	Inv
	Buf
	Nand2
	Nand3
	Nand4
	Nor2
	Nor3
	And2
	And3
	Or2
	Or3
	Xor2
	Xnor2
	Aoi21 // !(a*b + c)
	Oai21 // !((a+b) * c)
	Mux2  // sel ? b : a   (inputs: a, b, sel)
	TieLo
	TieHi
	DFF     // D flip-flop: inputs D; clocked implicitly
	RazorFF // DFF with shadow latch for delayed sampling (Razor)
	LvlShift
	numKinds
)

var kindNames = [...]string{
	Invalid:  "INVALID",
	Inv:      "INV",
	Buf:      "BUF",
	Nand2:    "NAND2",
	Nand3:    "NAND3",
	Nand4:    "NAND4",
	Nor2:     "NOR2",
	Nor3:     "NOR3",
	And2:     "AND2",
	And3:     "AND3",
	Or2:      "OR2",
	Or3:      "OR3",
	Xor2:     "XOR2",
	Xnor2:    "XNOR2",
	Aoi21:    "AOI21",
	Oai21:    "OAI21",
	Mux2:     "MUX2",
	TieLo:    "TIELO",
	TieHi:    "TIEHI",
	DFF:      "DFF",
	RazorFF:  "RAZORFF",
	LvlShift: "LVLSHIFT",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("KIND(%d)", uint8(k))
}

// Cell is the characterization record of one library cell.
type Cell struct {
	Kind       Kind
	Name       string
	NumInputs  int
	AreaUM2    float64 // placement area
	InputCapFF float64 // capacitance per input pin
	// Linear delay model at (VLow, nominal Lgate):
	// delay_ps = IntrinsicPS + DrivePSPerFF * load_fF.
	IntrinsicPS  float64
	DrivePSPerFF float64
	InternalFJ   float64 // internal energy per output transition at VLow
	// InputFJ is the internal energy per input-pin transition that
	// does not necessarily flip the output (short-circuit current
	// and internal-node charging). It dominates in multiplexer
	// networks whose select and data inputs churn while the output
	// holds — e.g. register-file read trees, which is what makes the
	// register file the top power consumer in the paper's Table 1.
	InputFJ    float64
	LeakNW     [2]float64 // leakage power at {VLow, VHigh}
	Sequential bool
	// Sequential-only timing and clock-pin energy.
	ClkQPS  float64 // clock-to-Q delay at (VLow, nominal Lgate)
	SetupPS float64 // setup time
	ClkFJ   float64 // internal energy per clock cycle (both edges), at VLow
}

// IsLevelShifter reports whether the cell is a low-to-high level
// shifter.
func (c *Cell) IsLevelShifter() bool { return c.Kind == LvlShift }

// IsTie reports whether the cell is a constant generator.
func (c *Cell) IsTie() bool { return c.Kind == TieLo || c.Kind == TieHi }

// MaxInputs is the input count of the library's widest cell, NAND4:
// the number of input-net slots a flat cell list holds per cell.
const MaxInputs = 4

// Eval computes the combinational function of the cell. For sequential
// cells it returns the captured data input (in[0]), which is how the
// cycle-based simulator advances state. It panics on an input-count
// mismatch, which indicates a netlist construction bug.
func (c *Cell) Eval(in []bool) bool {
	if len(in) != c.NumInputs {
		panic(fmt.Sprintf("cell %s: got %d inputs, want %d", c.Name, len(in), c.NumInputs))
	}
	// One cell over a private value array: inputs in slots 0..3, the
	// output in slot MaxInputs.
	var vals [MaxInputs + 1]bool
	copy(vals[:MaxInputs], in)
	kind := [1]Kind{c.Kind}
	pins := [1][MaxInputs]int32{{0, 1, 2, 3}}
	out := [1]int32{MaxInputs}
	EvalCells(kind[:], pins[:], out[:], vals[:])
	return vals[MaxInputs]
}

// EvalCells evaluates a flat list of cells in list order over the
// net-value array vals. Cell i has kind[i], reads its inputs from
// vals at in[i], in pin order, and writes its output to
// vals[out[i]]. Input slots past a cell's arity are ignored. A list
// in topological order settles a combinational netlist in one pass.
// Sequential kinds pass their data input through, as Cell.Eval
// does. This is the library's one truth table: Cell.Eval and the
// gate-level simulator both evaluate through it. in and out must be
// at least as long as kind; it panics on an invalid kind.
func EvalCells(kind []Kind, in [][MaxInputs]int32, out []int32, vals []bool) {
	in, out = in[:len(kind)], out[:len(kind)]
	for i, k := range kind {
		p := &in[i]
		var v bool
		switch k {
		case Inv:
			v = !vals[p[0]]
		case Buf, LvlShift, DFF, RazorFF:
			v = vals[p[0]]
		case Nand2:
			v = !(vals[p[0]] && vals[p[1]])
		case Nand3:
			v = !(vals[p[0]] && vals[p[1]] && vals[p[2]])
		case Nand4:
			v = !(vals[p[0]] && vals[p[1]] && vals[p[2]] && vals[p[3]])
		case Nor2:
			v = !(vals[p[0]] || vals[p[1]])
		case Nor3:
			v = !(vals[p[0]] || vals[p[1]] || vals[p[2]])
		case And2:
			v = vals[p[0]] && vals[p[1]]
		case And3:
			v = vals[p[0]] && vals[p[1]] && vals[p[2]]
		case Or2:
			v = vals[p[0]] || vals[p[1]]
		case Or3:
			v = vals[p[0]] || vals[p[1]] || vals[p[2]]
		case Xor2:
			v = vals[p[0]] != vals[p[1]]
		case Xnor2:
			v = vals[p[0]] == vals[p[1]]
		case Aoi21:
			v = !((vals[p[0]] && vals[p[1]]) || vals[p[2]])
		case Oai21:
			v = !((vals[p[0]] || vals[p[1]]) && vals[p[2]])
		case Mux2:
			if vals[p[2]] {
				v = vals[p[1]]
			} else {
				v = vals[p[0]]
			}
		case TieLo:
			v = false
		case TieHi:
			v = true
		default:
			panic(fmt.Sprintf("cell: eval of invalid kind %v", k))
		}
		vals[out[i]] = v
	}
}
