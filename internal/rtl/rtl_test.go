package rtl

import (
	"testing"
	"testing/quick"

	"vipipe/internal/cell"
	"vipipe/internal/gsim"
	"vipipe/internal/netlist"
)

func builder() *netlist.Builder {
	return netlist.NewBuilder("t", cell.Default65nm())
}

func sim(t *testing.T, nl *netlist.Netlist) *gsim.Simulator {
	t.Helper()
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	s, err := gsim.New(nl)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRippleAdderExhaustive4(t *testing.T) {
	b := builder()
	x := b.InputWord("x", 4)
	y := b.InputWord("y", 4)
	cin := b.Input("cin")
	sum, cout := RippleAdder(b, x, y, cin)
	s := sim(t, b.NL)
	for a := uint64(0); a < 16; a++ {
		for c := uint64(0); c < 16; c++ {
			for ci := uint64(0); ci < 2; ci++ {
				s.SetPIWord(x, a)
				s.SetPIWord(y, c)
				s.SetPI(cin, ci == 1)
				s.Eval()
				want := a + c + ci
				got := s.Word(sum)
				if s.Val(cout) {
					got |= 16
				}
				if got != want {
					t.Fatalf("%d+%d+%d = %d, want %d", a, c, ci, got, want)
				}
			}
		}
	}
}

func TestCarrySelectAdderMatchesRipple(t *testing.T) {
	for _, bs := range []int{1, 3, 4, 8, 20} {
		b := builder()
		x := b.InputWord("x", 16)
		y := b.InputWord("y", 16)
		sum, cout := CarrySelectAdder(b, x, y, b.Const(false), bs)
		s := sim(t, b.NL)
		vecs := [][2]uint64{
			{0, 0}, {0xFFFF, 1}, {0xAAAA, 0x5555}, {0x1234, 0xFEDC}, {0xFFFF, 0xFFFF},
		}
		for _, v := range vecs {
			s.SetPIWord(x, v[0])
			s.SetPIWord(y, v[1])
			s.Eval()
			want := v[0] + v[1]
			got := s.Word(sum)
			if s.Val(cout) {
				got |= 1 << 16
			}
			if got != want {
				t.Errorf("bs=%d: %#x+%#x = %#x, want %#x", bs, v[0], v[1], got, want)
			}
		}
	}
}

func TestCarrySelectShallowerThanRipple(t *testing.T) {
	br := builder()
	x := br.InputWord("x", 32)
	y := br.InputWord("y", 32)
	RippleAdder(br, x, y, br.Const(false))
	rippleDepth := br.NL.LogicDepth()

	bc := builder()
	x2 := bc.InputWord("x", 32)
	y2 := bc.InputWord("y", 32)
	CarrySelectAdder(bc, x2, y2, bc.Const(false), 4)
	cselDepth := bc.NL.LogicDepth()
	if cselDepth >= rippleDepth {
		t.Errorf("carry-select depth %d not shallower than ripple %d", cselDepth, rippleDepth)
	}
}

func TestAddSub(t *testing.T) {
	b := builder()
	x := b.InputWord("x", 8)
	y := b.InputWord("y", 8)
	sub := b.Input("sub")
	res, _ := AddSub(b, x, y, sub)
	s := sim(t, b.NL)
	cases := []struct {
		a, c uint64
		sub  bool
		want uint64
	}{
		{10, 3, false, 13},
		{10, 3, true, 7},
		{3, 10, true, 0xF9},   // -7 two's complement
		{200, 100, false, 44}, // wraps mod 256
		{0, 0, true, 0},
	}
	for _, tc := range cases {
		s.SetPIWord(x, tc.a)
		s.SetPIWord(y, tc.c)
		s.SetPI(sub, tc.sub)
		s.Eval()
		if got := s.Word(res); got != tc.want {
			t.Errorf("a=%d c=%d sub=%v: got %d, want %d", tc.a, tc.c, tc.sub, got, tc.want)
		}
	}
}

func TestIncrementer(t *testing.T) {
	b := builder()
	x := b.InputWord("x", 8)
	inc, cout := Incrementer(b, x)
	s := sim(t, b.NL)
	for _, v := range []uint64{0, 1, 127, 254, 255} {
		s.SetPIWord(x, v)
		s.Eval()
		want := (v + 1) & 0xFF
		if got := s.Word(inc); got != want {
			t.Errorf("inc(%d) = %d, want %d", v, got, want)
		}
		if s.Val(cout) != (v == 255) {
			t.Errorf("inc(%d) carry wrong", v)
		}
	}
}

func TestIncrementerBy(t *testing.T) {
	b := builder()
	x := b.InputWord("x", 8)
	sum, _ := IncrementerBy(b, x, 16)
	s := sim(t, b.NL)
	for _, v := range []uint64{0, 100, 250} {
		s.SetPIWord(x, v)
		s.Eval()
		if got := s.Word(sum); got != (v+16)&0xFF {
			t.Errorf("%d+16 = %d", v, got)
		}
	}
}

func TestNegate(t *testing.T) {
	b := builder()
	x := b.InputWord("x", 8)
	neg := Negate(b, x)
	s := sim(t, b.NL)
	for _, v := range []uint64{0, 1, 5, 128, 255} {
		s.SetPIWord(x, v)
		s.Eval()
		if got := s.Word(neg); got != (-v)&0xFF {
			t.Errorf("-%d = %d, want %d", v, got, (-v)&0xFF)
		}
	}
}

func TestComparators(t *testing.T) {
	b := builder()
	x := b.InputWord("x", 8)
	y := b.InputWord("y", 8)
	eq := Equal(b, x, y)
	zx := IsZero(b, x)
	ltu := LessUnsigned(b, x, y)
	lts := LessSigned(b, x, y)
	s := sim(t, b.NL)
	cases := []struct{ a, c uint64 }{
		{0, 0}, {1, 0}, {0, 1}, {5, 5}, {127, 128}, {128, 127}, {255, 1}, {200, 200}, {0x80, 0x80},
	}
	for _, tc := range cases {
		s.SetPIWord(x, tc.a)
		s.SetPIWord(y, tc.c)
		s.Eval()
		if s.Val(eq) != (tc.a == tc.c) {
			t.Errorf("eq(%d,%d) wrong", tc.a, tc.c)
		}
		if s.Val(zx) != (tc.a == 0) {
			t.Errorf("zero(%d) wrong", tc.a)
		}
		if s.Val(ltu) != (tc.a < tc.c) {
			t.Errorf("ltu(%d,%d) = %v", tc.a, tc.c, s.Val(ltu))
		}
		sa, sc := int8(tc.a), int8(tc.c)
		if s.Val(lts) != (sa < sc) {
			t.Errorf("lts(%d,%d) = %v", sa, sc, s.Val(lts))
		}
	}
}

func TestLessSignedProperty(t *testing.T) {
	b := builder()
	x := b.InputWord("x", 8)
	y := b.InputWord("y", 8)
	lts := LessSigned(b, x, y)
	s := sim(t, b.NL)
	f := func(a, c uint8) bool {
		s.SetPIWord(x, uint64(a))
		s.SetPIWord(y, uint64(c))
		s.Eval()
		return s.Val(lts) == (int8(a) < int8(c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestArrayMultiplier8x8(t *testing.T) {
	b := builder()
	x := b.InputWord("x", 8)
	y := b.InputWord("y", 8)
	prod := ArrayMultiplier(b, x, y)
	if len(prod) != 16 {
		t.Fatalf("product width %d", len(prod))
	}
	s := sim(t, b.NL)
	vecs := []uint64{0, 1, 2, 3, 15, 16, 100, 170, 255}
	for _, a := range vecs {
		for _, c := range vecs {
			s.SetPIWord(x, a)
			s.SetPIWord(y, c)
			s.Eval()
			if got := s.Word(prod); got != a*c {
				t.Fatalf("%d*%d = %d, want %d", a, c, got, a*c)
			}
		}
	}
}

func TestArrayMultiplierAsymmetric(t *testing.T) {
	b := builder()
	x := b.InputWord("x", 4)
	y := b.InputWord("y", 7)
	prod := ArrayMultiplier(b, x, y)
	s := sim(t, b.NL)
	f := func(a, c uint8) bool {
		av, cv := uint64(a&0xF), uint64(c&0x7F)
		s.SetPIWord(x, av)
		s.SetPIWord(y, cv)
		s.Eval()
		return s.Word(prod) == av*cv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMuxTree(t *testing.T) {
	b := builder()
	words := make([]netlist.Word, 8)
	for i := range words {
		words[i] = b.ConstWord(uint64(i*3), 8)
	}
	sel := b.InputWord("sel", 3)
	out := MuxTree(b, words, sel)
	s := sim(t, b.NL)
	for i := uint64(0); i < 8; i++ {
		s.SetPIWord(sel, i)
		s.Eval()
		if got := s.Word(out); got != i*3 {
			t.Errorf("mux[%d] = %d, want %d", i, got, i*3)
		}
	}
}

func TestDecoder(t *testing.T) {
	b := builder()
	sel := b.InputWord("sel", 3)
	lines := Decoder(b, sel)
	s := sim(t, b.NL)
	for v := uint64(0); v < 8; v++ {
		s.SetPIWord(sel, v)
		s.Eval()
		for i, l := range lines {
			if s.Val(l) != (uint64(i) == v) {
				t.Errorf("sel=%d line %d = %v", v, i, s.Val(l))
			}
		}
	}
}

func TestOneHotMux(t *testing.T) {
	b := builder()
	sels := []int{b.Input("s0"), b.Input("s1"), b.Input("s2")}
	words := []netlist.Word{
		b.ConstWord(5, 4), b.ConstWord(9, 4), b.ConstWord(12, 4),
	}
	out := OneHotMux(b, sels, words)
	s := sim(t, b.NL)
	wants := []uint64{5, 9, 12}
	for i := range sels {
		for j, sl := range sels {
			s.SetPI(sl, i == j)
		}
		s.Eval()
		if got := s.Word(out); got != wants[i] {
			t.Errorf("one-hot %d = %d, want %d", i, got, wants[i])
		}
	}
	// No select high -> zero.
	for _, sl := range sels {
		s.SetPI(sl, false)
	}
	s.Eval()
	if s.Word(out) != 0 {
		t.Error("unselected one-hot mux should output 0")
	}
}

func TestExtend(t *testing.T) {
	b := builder()
	x := b.InputWord("x", 4)
	ze := ZeroExtend(b, x, 8)
	se := SignExtend(b, x, 8)
	trunc := ZeroExtend(b, x, 2)
	s := sim(t, b.NL)
	s.SetPIWord(x, 0xA) // 1010: negative as 4-bit
	s.Eval()
	if got := s.Word(ze); got != 0x0A {
		t.Errorf("zext = %#x", got)
	}
	if got := s.Word(se); got != 0xFA {
		t.Errorf("sext = %#x", got)
	}
	if got := s.Word(trunc); got != 0x2 {
		t.Errorf("trunc = %#x", got)
	}
}

func TestRegisterFile(t *testing.T) {
	b := builder()
	raddr := []netlist.Word{b.InputWord("ra0", 3), b.InputWord("ra1", 3)}
	w0 := WritePort{Addr: b.InputWord("wa0", 3), Data: b.InputWord("wd0", 8), En: b.Input("we0")}
	w1 := WritePort{Addr: b.InputWord("wa1", 3), Data: b.InputWord("wd1", 8), En: b.Input("we1")}
	rf := RegisterFile(b, 8, 8, raddr, []WritePort{w0, w1})
	rdata := rf.Read
	if len(rf.Q) != 8 || len(rf.Q[3]) != 8 {
		t.Fatalf("Q nets shape wrong: %d regs", len(rf.Q))
	}
	s := sim(t, b.NL)

	write := func(p WritePort, addr, data uint64, en bool) {
		s.SetPIWord(p.Addr, addr)
		s.SetPIWord(p.Data, data)
		s.SetPI(p.En, en)
	}
	// Cycle 1: write r3=0x5A on port0, r5=0x77 on port1.
	write(w0, 3, 0x5A, true)
	write(w1, 5, 0x77, true)
	s.Step()
	// Cycle 2: read back both; no writes.
	write(w0, 0, 0, false)
	write(w1, 0, 0, false)
	s.SetPIWord(raddr[0], 3)
	s.SetPIWord(raddr[1], 5)
	s.Step()
	if got := s.Word(rdata[0]); got != 0x5A {
		t.Errorf("r3 = %#x, want 0x5A", got)
	}
	if got := s.Word(rdata[1]); got != 0x77 {
		t.Errorf("r5 = %#x, want 0x77", got)
	}

	// r0 always reads zero, even after a write to it.
	write(w0, 0, 0xFF, true)
	s.Step()
	write(w0, 0, 0, false)
	s.SetPIWord(raddr[0], 0)
	s.Step()
	if got := s.Word(rdata[0]); got != 0 {
		t.Errorf("r0 = %#x, want 0", got)
	}

	// Same-address conflict: port1 (later) wins.
	write(w0, 6, 0x11, true)
	write(w1, 6, 0x22, true)
	s.Step()
	write(w0, 0, 0, false)
	write(w1, 0, 0, false)
	s.SetPIWord(raddr[0], 6)
	s.Step()
	if got := s.Word(rdata[0]); got != 0x22 {
		t.Errorf("conflict write: r6 = %#x, want 0x22 (port1 priority)", got)
	}

	// Hold: values survive idle cycles.
	for i := 0; i < 3; i++ {
		s.Step()
	}
	s.SetPIWord(raddr[1], 3)
	s.Step()
	if got := s.Word(rdata[1]); got != 0x5A {
		t.Errorf("r3 after hold = %#x, want 0x5A", got)
	}
}

func TestRegisterFilePanics(t *testing.T) {
	b := builder()
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-power-of-two size")
		}
	}()
	RegisterFile(b, 6, 8, nil, nil)
}

func TestWidthMismatchPanics(t *testing.T) {
	b := builder()
	x := b.InputWord("x", 4)
	y := b.InputWord("y", 5)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	RippleAdder(b, x, y, b.Const(false))
}

func TestShifterDyn(t *testing.T) {
	b := builder()
	x := b.InputWord("x", 16)
	amt := b.InputWord("amt", 4)
	right := b.Input("right")
	arith := b.Input("arith")
	fill := b.And(arith, MSB(x))
	out := ShifterDyn(b, x, amt, right, fill)
	s := sim(t, b.NL)
	for _, v := range []uint64{0x8001, 0x7FFF, 0x1234} {
		for sh := uint64(0); sh < 16; sh++ {
			for _, mode := range []struct {
				right, arith bool
				want         uint64
			}{
				{false, false, (v << sh) & 0xFFFF},
				{true, false, v >> sh},
				{true, true, uint64(uint16(int16(v) >> sh))},
			} {
				s.SetPIWord(x, v)
				s.SetPIWord(amt, sh)
				s.SetPI(right, mode.right)
				s.SetPI(arith, mode.arith)
				s.Eval()
				if got := s.Word(out); got != mode.want {
					t.Fatalf("dyn shift v=%#x sh=%d right=%v arith=%v: got %#x want %#x",
						v, sh, mode.right, mode.arith, got, mode.want)
				}
			}
		}
	}
}
