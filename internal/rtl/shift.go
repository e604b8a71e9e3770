package rtl

import (
	"fmt"

	"vipipe/internal/netlist"
)

// ShifterDyn emits a direction-programmable barrel shifter: when right
// is 0 the output is x << amt (zero fill); when right is 1 the output
// is x >> amt with vacated bits filled from the fill net (drive it
// with 0 for a logical shift, with the sign bit for an arithmetic
// one). It is built as a single left barrel shifter wrapped in
// conditional bit-reversal muxes, the standard trick for sharing one
// shifter across directions.
func ShifterDyn(b *netlist.Builder, x netlist.Word, amt netlist.Word, right, fill int) netlist.Word {
	rev := func(w netlist.Word) netlist.Word {
		out := make(netlist.Word, len(w))
		for i := range w {
			out[i] = w[len(w)-1-i]
		}
		return out
	}
	in := b.MuxWord(x, rev(x), right)
	sh := leftBarrel(b, in, amt, fill)
	return b.MuxWord(sh, rev(sh), right)
}

// leftBarrel emits a left barrel shifter whose vacated low bits are
// filled from the fill net.
func leftBarrel(b *netlist.Builder, x netlist.Word, amt netlist.Word, fill int) netlist.Word {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("rtl: barrel shifter width %d not a power of two", n))
	}
	stages := 0
	for 1<<stages < n {
		stages++
	}
	if len(amt) != stages {
		panic(fmt.Sprintf("rtl: barrel shifter needs %d amount bits, got %d", stages, len(amt)))
	}
	cur := append(netlist.Word(nil), x...)
	for k := 0; k < stages; k++ {
		sh := 1 << k
		shifted := make(netlist.Word, n)
		for i := 0; i < n; i++ {
			if i >= sh {
				shifted[i] = cur[i-sh]
			} else {
				shifted[i] = fill
			}
		}
		cur = b.MuxWord(cur, shifted, amt[k])
	}
	return cur
}
