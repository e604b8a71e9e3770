package place

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"vipipe/internal/cell"
	"vipipe/internal/netlist"
	"vipipe/internal/stats"
	"vipipe/internal/vex"
)

// mustNew builds the placement container without running placement.
func mustNew(nl *netlist.Netlist) *Placement {
	p, err := newPlacement(nl, 0.7)
	if err != nil {
		panic(err)
	}
	return p
}

func newStream(seed int64) *stats.Stream { return stats.DeriveStream(seed, "test") }

// allCells lists every cell of nl, the region Global starts from.
func allCells(nl *netlist.Netlist) []int {
	all := make([]int, nl.NumCells())
	for i := range all {
		all[i] = i
	}
	return all
}

// vexNetlist builds a VEX core's netlist.
func vexNetlist(tb testing.TB, cfg vex.Config) *netlist.Netlist {
	tb.Helper()
	core, err := vex.Build(cfg, cell.Default65nm())
	if err != nil {
		tb.Fatal(err)
	}
	return core.NL
}

// placementDigest is the SHA-256 over each cell's X then Y float64
// bits, little-endian, in cell order.
func placementDigest(p *Placement) string {
	h := sha256.New()
	var b [16]byte
	for i := range p.X {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(p.X[i]))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(p.Y[i]))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
