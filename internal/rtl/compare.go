package rtl

import "vipipe/internal/netlist"

// Equal emits a bus equality comparator: 1 when x == y.
func Equal(b *netlist.Builder, x, y netlist.Word) int {
	checkWidths("Equal", x, y)
	bits := make([]int, len(x))
	for i := range x {
		bits[i] = b.Xnor(x[i], y[i])
	}
	return b.AndTree(bits)
}

// IsZero emits a zero detector: 1 when every bit of x is 0.
func IsZero(b *netlist.Builder, x netlist.Word) int {
	if len(x) == 1 {
		return b.Not(x[0])
	}
	ors := make([]int, len(x))
	copy(ors, x)
	return b.Not(b.OrTree(ors))
}

// MSB returns the top bit of a bus (the sign for two's complement).
// The paper's compare unit "checks MSB bits of ALU results"; this is
// that check.
func MSB(x netlist.Word) int { return x[len(x)-1] }
