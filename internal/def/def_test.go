package def

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"vipipe/internal/cell"
	"vipipe/internal/netlist"
	"vipipe/internal/place"
)

func fixture(t *testing.T) *place.Placement {
	t.Helper()
	b := netlist.NewBuilder("deftest", cell.Default65nm())
	x := b.NL.AddPI("x")
	n := x
	for i := 0; i < 30; i++ {
		n = b.Not(n)
	}
	b.DFF(n)
	p, err := place.Global(b.NL, place.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRoundTrip(t *testing.T) {
	p := fixture(t)
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	f, err := Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if f.Design != "deftest" {
		t.Errorf("design = %q", f.Design)
	}
	if f.Rows != p.Rows {
		t.Errorf("rows = %d, want %d", f.Rows, p.Rows)
	}
	if math.Abs(f.DieW-p.DieW) > 0.01 || math.Abs(f.DieH-p.DieH) > 0.01 {
		t.Errorf("die %gx%g, want %gx%g", f.DieW, f.DieH, p.DieW, p.DieH)
	}
	// Applying onto a scrambled placement restores coordinates.
	p2 := fixture(t)
	for i := range p2.X {
		p2.X[i] = 0
		p2.Y[i] = 0
	}
	if err := f.Apply(p2); err != nil {
		t.Fatal(err)
	}
	for i := range p.X {
		if math.Abs(p.X[i]-p2.X[i]) > 0.001 || math.Abs(p.Y[i]-p2.Y[i]) > 0.001 {
			t.Fatalf("cell %d at (%g,%g), want (%g,%g)", i, p2.X[i], p2.Y[i], p.X[i], p.Y[i])
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"VERSION 5.8 ;\nEND DESIGN\n",                                     // no components
		"COMPONENTS 1 ;\n- u1 INV + PLACED ( x y ) N ;\nEND COMPONENTS\n", // bad coords
		"DIEAREA ( 0 0 ( 10 10 ;\nCOMPONENTS ;",                           // mangled diearea is short
	}
	for _, src := range bad {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestApplyRejectsForeignComponents(t *testing.T) {
	p := fixture(t)
	f := &File{Placed: map[string][2]float64{"ghost": {1, 2}}}
	if err := f.Apply(p); err == nil {
		t.Error("foreign component accepted")
	}
}

func TestApplyRejectsPartialCoverage(t *testing.T) {
	p := fixture(t)
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	f, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Drop one component.
	for name := range f.Placed {
		delete(f.Placed, name)
		break
	}
	if err := f.Apply(p); err == nil {
		t.Error("partial coverage accepted")
	}
}

func TestWriteRefusesInvalidPlacement(t *testing.T) {
	p := fixture(t)
	p.X[0] = -1e9
	var buf bytes.Buffer
	if err := Write(&buf, p); err == nil {
		t.Error("invalid placement written")
	}
}
