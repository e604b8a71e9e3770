// Package rtl provides structural generators that emit mapped
// gate-level logic into a netlist.Builder: adders, shifters,
// multipliers, comparators, multiplexer trees and register files.
// These substitute for the logic-synthesis step of the paper's flow:
// the VEX core is assembled directly from these blocks as a mapped
// netlist, the form all downstream analyses consume.
package rtl

import (
	"fmt"

	"vipipe/internal/netlist"
)

// FullAdder emits a full adder and returns (sum, carry).
func FullAdder(b *netlist.Builder, x, y, cin int) (sum, cout int) {
	axb := b.Xor(x, y)
	sum = b.Xor(axb, cin)
	// cout = x*y + cin*(x^y)
	cout = b.Or(b.And(x, y), b.And(cin, axb))
	return sum, cout
}

// HalfAdder emits a half adder and returns (sum, carry).
func HalfAdder(b *netlist.Builder, x, y int) (sum, cout int) {
	return b.Xor(x, y), b.And(x, y)
}

// RippleAdder emits a ripple-carry adder over two equal-width buses
// and returns the sum and the carry out. The linear carry chain is
// what puts the ALU on the paper's critical path.
func RippleAdder(b *netlist.Builder, x, y netlist.Word, cin int) (sum netlist.Word, cout int) {
	checkWidths("RippleAdder", x, y)
	sum = make(netlist.Word, len(x))
	c := cin
	for i := range x {
		sum[i], c = FullAdder(b, x[i], y[i], c)
	}
	return sum, c
}

// CarrySelectAdder emits a carry-select adder with the given block
// size: each block is computed for both carry-in values and the real
// carry selects the result, cutting the carry chain to one mux per
// block. Used in the multiplier's final add so that the multiplier
// does not dominate the execute-stage critical path.
func CarrySelectAdder(b *netlist.Builder, x, y netlist.Word, cin int, blockSize int) (sum netlist.Word, cout int) {
	checkWidths("CarrySelectAdder", x, y)
	if blockSize < 1 {
		panic("rtl: carry-select block size must be >= 1")
	}
	sum = make(netlist.Word, 0, len(x))
	zero := b.Const(false)
	one := b.Const(true)
	c := cin
	for lo := 0; lo < len(x); lo += blockSize {
		hi := lo + blockSize
		if hi > len(x) {
			hi = len(x)
		}
		if lo == 0 {
			// First block: plain ripple with the true carry.
			s, cN := RippleAdder(b, x[lo:hi], y[lo:hi], c)
			sum = append(sum, s...)
			c = cN
			continue
		}
		s0, c0 := RippleAdder(b, x[lo:hi], y[lo:hi], zero)
		s1, c1 := RippleAdder(b, x[lo:hi], y[lo:hi], one)
		sum = append(sum, b.MuxWord(s0, s1, c)...)
		c = b.Mux(c0, c1, c)
	}
	return sum, c
}

// AddSub emits an adder/subtractor: when sub is 1 the result is x - y
// (two's complement), otherwise x + y. Returns sum and carry out.
func AddSub(b *netlist.Builder, x, y netlist.Word, sub int) (sum netlist.Word, cout int) {
	checkWidths("AddSub", x, y)
	yx := make(netlist.Word, len(y))
	for i := range y {
		yx[i] = b.Xor(y[i], sub)
	}
	return RippleAdder(b, x, yx, sub)
}

// Incrementer emits x + 1 using a half-adder chain and returns the
// incremented bus and the carry out. Used for the fetch-stage PC.
func Incrementer(b *netlist.Builder, x netlist.Word) (sum netlist.Word, cout int) {
	sum = make(netlist.Word, len(x))
	c := b.Const(true)
	for i := range x {
		sum[i], c = HalfAdder(b, x[i], c)
	}
	return sum, c
}

func checkWidths(op string, x, y netlist.Word) {
	if len(x) != len(y) || len(x) == 0 {
		panic(fmt.Sprintf("rtl: %s width mismatch %d vs %d", op, len(x), len(y)))
	}
}
