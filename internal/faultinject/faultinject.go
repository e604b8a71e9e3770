// Package faultinject is the flow's fault-injection harness: it
// deterministically corrupts the artifacts the flow exchanges —
// SDF/DEF text, netlists, placements, partition vectors — and provides
// a guard that converts any panic escaping the code under test into a
// typed flowerr.PanicError. The accompanying test suite asserts the
// robustness contract of this repository: every corrupted artifact is
// rejected with a typed error (flowerr.ErrBadInput or ErrDRC), and no
// corruption, however mangled, reaches a panic.
//
// All corruption is seeded through stats.DeriveStream, so a failing
// seed reproduces exactly.
package faultinject

import (
	"math"
	"runtime/debug"

	"vipipe/internal/flowerr"
	"vipipe/internal/netlist"
	"vipipe/internal/place"
	"vipipe/internal/stats"
)

// Guard runs fn and converts an escaping panic into an error matching
// flowerr.ErrWorkerPanic (carrying the stack); otherwise it returns
// fn's own error.
//
//lint:ignore deadcode test support: TestGuardConvertsPanics and the TestCorrupted* cases of make fault
func Guard(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &flowerr.PanicError{Sample: -1, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// CorruptText applies 1-4 random text mutations — truncation, byte
// deletion/duplication/overwrite, paren injection, digit garbling — to
// a copy of data. With n == 0 bytes the input is returned unchanged.
//
//lint:ignore deadcode test support: TestCorruptedSDFNeverPanics and TestCorruptedDEFNeverPanics (make fault)
func CorruptText(data []byte, rng *stats.Stream) []byte {
	out := append([]byte(nil), data...)
	for m := 1 + rng.Intn(4); m > 0 && len(out) > 0; m-- {
		switch rng.Intn(6) {
		case 0: // truncate
			out = out[:rng.Intn(len(out))]
		case 1: // delete one byte
			i := rng.Intn(len(out))
			out = append(out[:i], out[i+1:]...)
		case 2: // duplicate a span
			i := rng.Intn(len(out))
			j := i + 1 + rng.Intn(16)
			if j > len(out) {
				j = len(out)
			}
			out = append(out[:j], append(append([]byte(nil), out[i:j]...), out[j:]...)...)
		case 3: // overwrite with a hostile byte
			hostile := []byte{'(', ')', '"', '\\', ':', 0, '-', 'e'}
			out[rng.Intn(len(out))] = hostile[rng.Intn(len(hostile))]
		case 4: // garble a digit
			for k := 0; k < 32; k++ {
				i := rng.Intn(len(out))
				if out[i] >= '0' && out[i] <= '9' {
					out[i] = byte("x.-+:e"[rng.Intn(6)])
					break
				}
			}
		case 5: // swap two bytes
			i, j := rng.Intn(len(out)), rng.Intn(len(out))
			out[i], out[j] = out[j], out[i]
		}
	}
	return out
}

// CorruptNetlist applies one structural corruption to nl in place and
// returns a description of what it broke. The corruption stays within
// slice bounds the netlist type itself can represent (dangling
// references, inconsistent bookkeeping, wrong arity) — exactly the
// damage a buggy transformation or a bad import would cause.
//
//lint:ignore deadcode test support: TestCorruptedNetlistCaughtByDRC (make fault)
func CorruptNetlist(nl *netlist.Netlist, rng *stats.Stream) string {
	if nl.NumCells() == 0 || nl.NumNets() == 0 {
		return "empty netlist left alone"
	}
	i := rng.Intn(nl.NumCells())
	n := rng.Intn(nl.NumNets())
	switch rng.Intn(6) {
	case 0:
		nl.Insts[i].Out = nl.NumNets() + 7
		return "instance output points past the net array"
	case 1:
		if len(nl.Insts[i].Inputs) == 0 {
			nl.Insts[i].Inputs = []int{-3}
			return "input pin added where none belong"
		}
		nl.Insts[i].Inputs[0] = -3
		return "input pin references a negative net"
	case 2:
		nl.Nets[n].Driver = nl.NumCells() + 11
		return "net driven by a nonexistent instance"
	case 3:
		nl.Nets[n].Driver = netlist.NoInst
		return "net driver bookkeeping dropped"
	case 4:
		nl.Insts[i].Inputs = append(nl.Insts[i].Inputs, nl.Insts[i].Out)
		return "arity grown beyond the library cell"
	case 5:
		nl.Nets[n].Sinks = append(nl.Nets[n].Sinks, netlist.Sink{Inst: nl.NumCells() + 5, Pin: 0})
		return "net lists a nonexistent sink"
	}
	return "unreachable"
}

// CorruptPlacement damages pl in place and returns a description.
//
//lint:ignore deadcode test support: TestCorruptedPlacementCaughtByDRC (make fault)
func CorruptPlacement(pl *place.Placement, rng *stats.Stream) string {
	if len(pl.X) == 0 {
		return "empty placement left alone"
	}
	i := rng.Intn(len(pl.X))
	switch rng.Intn(4) {
	case 0:
		pl.X[i] = math.NaN()
		return "NaN x coordinate"
	case 1:
		pl.Y[i] = pl.DieH * 40
		return "cell far outside the die"
	case 2:
		pl.Y[i] += pl.RowHeight * 0.37
		return "cell off the row grid"
	case 3:
		pl.X = pl.X[:len(pl.X)-1]
		return "coordinate vector shorter than the netlist"
	}
	return "unreachable"
}

// CorruptRegion damages a partition region vector and returns a
// description together with the corrupted copy.
//
//lint:ignore deadcode test support: TestCorruptedRegionCaughtByDRC (make fault)
func CorruptRegion(region []int32, rng *stats.Stream) ([]int32, string) {
	out := append([]int32(nil), region...)
	if len(out) == 0 {
		return out, "empty region left alone"
	}
	switch rng.Intn(2) {
	case 0:
		return out[:rng.Intn(len(out))], "region vector truncated"
	default:
		out[rng.Intn(len(out))] = 127
		return out, "region index out of any island"
	}
}
