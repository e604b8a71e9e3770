package def

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"vipipe/internal/cell"
	"vipipe/internal/flowerr"
	"vipipe/internal/netlist"
	"vipipe/internal/place"
)

// writerCorpus emits a small DEF via the package's own writer.
func writerCorpus() string {
	b := netlist.NewBuilder("fuzzseed", cell.Default65nm())
	x := b.NL.AddPI("x")
	n := x
	for i := 0; i < 12; i++ {
		n = b.Not(n)
	}
	b.DFF(n)
	pl, err := place.Global(b.NL, place.DefaultOptions())
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, pl); err != nil {
		panic(err)
	}
	return buf.String()
}

func FuzzParseDEF(f *testing.F) {
	seed := writerCorpus()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(strings.Replace(seed, "PLACED ( ", "PLACED ( x", 1))
	f.Add("DIEAREA ( 0 0 ) ( bogus 10 ) ;")
	f.Add("COMPONENTS 1 ;\n- a INV + PLACED ( 1 2 ) N ;\nEND COMPONENTS")
	f.Add("COMPONENTS 1 ;\n- a INV\nEND COMPONENTS")
	f.Add("COMPONENTS 1 ;\n- a INV + PLACED ( 99999999999999999999 2 ) N ;\nEND COMPONENTS")
	f.Add("")
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
		if len(file.Placed) == 0 {
			t.Fatal("accepted a DEF with no placed components")
		}
	})
}
