package isa

import (
	"testing"
	"testing/quick"
)

func TestOpString(t *testing.T) {
	if ADD.String() != "add" || MPYLU.String() != "mpylu" || Op(60).String() != "op(60)" {
		t.Error("op names wrong")
	}
}

func TestPredicates(t *testing.T) {
	if !ADD.WritesReg() || ST.WritesReg() || NOP.WritesReg() || BNEZ.WritesReg() {
		t.Error("WritesReg wrong")
	}
	if !ST.ReadsRb() || ADDI.ReadsRb() || LD.ReadsRb() {
		t.Error("ReadsRb wrong")
	}
	if !ADDI.UsesImm16() || ADD.UsesImm16() || !GOTO.UsesImm16() {
		t.Error("UsesImm16 wrong")
	}
	if !LD.UsesImm12() || ADD.UsesImm12() {
		t.Error("UsesImm12 wrong")
	}
	if !GOTO.IsBranch() || ADD.IsBranch() {
		t.Error("IsBranch wrong")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Instr{
		{Op: NOP},
		{Op: ADD, Rd: 1, Ra: 2, Rb: 3},
		{Op: SUB, Rd: 31, Ra: 30, Rb: 29},
		{Op: ADDI, Rd: 5, Ra: 6, Imm16: -1},
		{Op: ADDI, Rd: 5, Ra: 6, Imm16: 32767},
		{Op: ADDI, Rd: 5, Ra: 6, Imm16: -32768},
		{Op: LD, Rd: 7, Ra: 8, Imm12: -4},
		{Op: LD, Rd: 7, Ra: 8, Imm12: 2047},
		{Op: ST, Rb: 9, Ra: 10, Imm12: -2048},
		{Op: BEQZ, Ra: 3, Imm16: -100},
		{Op: GOTO, Imm16: 12},
		{Op: MPYLU, Rd: 11, Ra: 12, Rb: 13},
	}
	for _, in := range cases {
		got := Decode(Encode(in))
		// Normalize fields the op does not use before comparing.
		want := in
		if !want.Op.UsesImm16() {
			want.Imm16 = got.Imm16
		}
		if !want.Op.UsesImm12() {
			want.Imm12 = got.Imm12
		}
		if !want.Op.ReadsRb() && !want.Op.UsesImm16() {
			want.Rb = got.Rb
		}
		if got.Op != want.Op || got.Rd != want.Rd || got.Ra != want.Ra {
			t.Errorf("roundtrip %v -> %v", in, got)
		}
		if want.Op.UsesImm16() && got.Imm16 != want.Imm16 {
			t.Errorf("%v: imm16 %d -> %d", in, want.Imm16, got.Imm16)
		}
		if want.Op.UsesImm12() && got.Imm12 != want.Imm12 {
			t.Errorf("%v: imm12 %d -> %d", in, want.Imm12, got.Imm12)
		}
		if want.Op.ReadsRb() && !want.Op.UsesImm16() && got.Rb != want.Rb {
			t.Errorf("%v: rb %d -> %d", in, want.Rb, got.Rb)
		}
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(rd, ra, rb uint8, imm int16) bool {
		in := Instr{Op: ADD, Rd: rd & 31, Ra: ra & 31, Rb: rb & 31}
		d := Decode(Encode(in))
		if d.Op != ADD || d.Rd != in.Rd || d.Ra != in.Ra || d.Rb != in.Rb {
			return false
		}
		im := Instr{Op: ADDI, Rd: rd & 31, Ra: ra & 31, Imm16: int32(imm)}
		di := Decode(Encode(im))
		return di.Imm16 == int32(imm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEncodeBundlePadsNops(t *testing.T) {
	b := Bundle{{Op: ADD, Rd: 1, Ra: 2, Rb: 3}}
	ws := EncodeBundle(b, 4)
	if len(ws) != 4 {
		t.Fatalf("len = %d", len(ws))
	}
	if Decode(ws[0]).Op != ADD {
		t.Error("slot 0 wrong")
	}
	for i := 1; i < 4; i++ {
		if Decode(ws[i]).Op != NOP {
			t.Errorf("slot %d not NOP", i)
		}
	}
}

func TestAssembleBasic(t *testing.T) {
	src := `
# FIR-ish fragment
start:
  addi $r1, $r0, 10 ; add $r2, $r0, $r0 ; nop ; nop
loop:
  ld $r3, 4($r2) ; mpylu $r4, $r3, $r3
  st $r4, 0($r2) ; addi $r2, $r2, 1
  bnez $r1, loop ; addi $r1, $r1, -1
  goto start
`
	bundles, err := Assemble(src, 4, 31)
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles) != 5 {
		t.Fatalf("bundles = %d, want 5", len(bundles))
	}
	if bundles[0][0].Op != ADDI || bundles[0][0].Imm16 != 10 {
		t.Errorf("bundle0 slot0 = %v", bundles[0][0])
	}
	if bundles[1][0].Op != LD || bundles[1][0].Imm12 != 4 || bundles[1][0].Rd != 3 {
		t.Errorf("ld decoded wrong: %v", bundles[1][0])
	}
	if bundles[2][0].Op != ST || bundles[2][0].Rb != 4 || bundles[2][0].Ra != 2 {
		t.Errorf("st decoded wrong: %v", bundles[2][0])
	}
	// bnez at bundle 3 targets loop (bundle 1): offset -2.
	if bundles[3][0].Op != BNEZ || bundles[3][0].Imm16 != -2 {
		t.Errorf("bnez = %v", bundles[3][0])
	}
	// goto at bundle 4 targets start (bundle 0): offset -4.
	if bundles[4][0].Op != GOTO || bundles[4][0].Imm16 != -4 {
		t.Errorf("goto = %v", bundles[4][0])
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"frob $r1, $r2, $r3",          // unknown mnemonic
		"add $r1, $r2",                // missing operand
		"add $r1, $r2, $r99",          // bad register
		"nop ; nop ; nop ; nop ; nop", // too many slots
		"nop ; bnez $r1, x",           // branch outside slot 0
		"bnez $r1, nowhere",           // undefined label
		"l1: nop\nl1: nop",            // duplicate label
		"ld $r1, 5000($r2)",           // offset out of range
		"addi $r1, $r2, 70000",        // imm out of range
		"ld $r1, $r2",                 // bad memory operand
		"1bad: nop",                   // bad label
		"nop $r1",                     // nop with operands
		"st $r1, x($r2)",              // bad offset
		"goto $r1, l",                 // goto arity
		"beqz $r1, $$",                // bad target
	}
	for _, src := range cases {
		if _, err := Assemble(src, 4, 31); err == nil {
			t.Errorf("accepted bad program %q", src)
		}
	}
}

func TestAssembleEmptySlotsAreNops(t *testing.T) {
	bundles, err := Assemble("add $r1, $r2, $r3 ; ; nop", 4, 31)
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles[0]) != 3 || bundles[0][1].Op != NOP {
		t.Errorf("bundle = %v", bundles[0])
	}
}

func TestAssembleNumericBranch(t *testing.T) {
	bundles, err := Assemble("goto -3", 4, 31)
	if err != nil {
		t.Fatal(err)
	}
	if bundles[0][0].Imm16 != -3 {
		t.Errorf("goto offset = %d", bundles[0][0].Imm16)
	}
}

func TestInstrString(t *testing.T) {
	cases := map[string]Instr{
		"nop":               {Op: NOP},
		"add $r1, $r2, $r3": {Op: ADD, Rd: 1, Ra: 2, Rb: 3},
		"addi $r1, $r2, -5": {Op: ADDI, Rd: 1, Ra: 2, Imm16: -5},
		"ld $r1, 8($r2)":    {Op: LD, Rd: 1, Ra: 2, Imm12: 8},
		"st $r3, -4($r2)":   {Op: ST, Rb: 3, Ra: 2, Imm12: -4},
		"bnez $r1, +7":      {Op: BNEZ, Ra: 1, Imm16: 7},
		"goto -2":           {Op: GOTO, Imm16: -2},
	}
	for want, in := range cases {
		if got := in.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestLabelOnlyLinesAndInlineLabels(t *testing.T) {
	src := "a:\nb: nop\n  goto a"
	bundles, err := Assemble(src, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles) != 2 {
		t.Fatalf("bundles = %d", len(bundles))
	}
	if bundles[1][0].Imm16 != -1 {
		t.Errorf("goto a offset = %d, want -1", bundles[1][0].Imm16)
	}
}
