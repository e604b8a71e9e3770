package sdf

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"vipipe/internal/cell"
	"vipipe/internal/flowerr"
	"vipipe/internal/netlist"
)

// writerCorpus emits a small but representative SDF via the package's
// own writer, so the fuzzer starts from well-formed input.
func writerCorpus() string {
	b := netlist.NewBuilder("fuzz (seed)", cell.Default65nm())
	x := b.NL.AddPI("x")
	y := b.NL.AddPI("y")
	b.DFF(b.And(b.Xor(x, y), b.Not(x)))
	delays := make([]float64, b.NL.NumCells())
	for i := range delays {
		delays[i] = 10 + float64(i)
	}
	var buf bytes.Buffer
	if err := Write(&buf, b.NL, delays); err != nil {
		panic(err)
	}
	return buf.String()
}

func FuzzParseSDF(f *testing.F) {
	seed := writerCorpus()
	f.Add(seed)
	// Mutated variants covering the grammar's edges: truncation,
	// unbalanced parens, hostile timescales and delay triples.
	f.Add(seed[:len(seed)/2])
	f.Add(strings.Replace(seed, "1ps", "0ps", 1))
	f.Add(strings.Replace(seed, "1ps", "-3ns", 1))
	f.Add(strings.Replace(seed, "1ps", "nonsense", 1))
	f.Add("(DELAYFILE")
	f.Add("(DELAYFILE (CELL (INSTANCE a) (DELAY (ABSOLUTE (IOPATH * Z (:::))))))")
	f.Add("(DELAYFILE (CELL (DELAY (ABSOLUTE (IOPATH * Z (1:2:nan))))) )")
	f.Add(`(DELAYFILE (DESIGN "x`)
	f.Add("(((((((((((")
	f.Add(")")
	f.Add("\\")
	f.Fuzz(func(t *testing.T, data string) {
		file, err := Parse(strings.NewReader(data))
		if err != nil {
			if !errors.Is(err, flowerr.ErrBadInput) {
				t.Fatalf("untyped parse error: %v", err)
			}
			return
		}
		if file == nil {
			t.Fatal("nil file with nil error")
		}
		if file.TimescalePS <= 0 {
			t.Fatalf("accepted non-positive timescale %g", file.TimescalePS)
		}
	})
}
