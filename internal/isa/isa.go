// Package isa defines the VEX-like VLIW instruction set of the target
// core: 32-bit operations grouped into one bundle per cycle (one
// operation per execution slot), the binary encoding shared by the
// hardware decoder (internal/vex) and the behavioral simulator
// (internal/vexsim), and a small assembler.
//
// The ISA is a reduced but structurally faithful stand-in for the VEX
// architecture of Fisher et al. used in the paper: a clustered 32-bit
// VLIW with ALU, shifter, compare, memory-address and multiply
// operations per slot, and branches resolved in the decode stage with
// static predict-not-taken.
package isa

import "fmt"

// Op enumerates operation codes. The value is the 5-bit opcode field.
type Op uint8

// Operation codes.
const (
	NOP    Op = 0  // no operation
	ADD    Op = 1  // rd = ra + rb
	SUB    Op = 2  // rd = ra - rb
	AND    Op = 3  // rd = ra & rb
	OR     Op = 4  // rd = ra | rb
	XOR    Op = 5  // rd = ra ^ rb
	SLL    Op = 6  // rd = ra << rb
	SRL    Op = 7  // rd = ra >> rb (logical)
	SRA    Op = 8  // rd = ra >> rb (arithmetic)
	CMPEQ  Op = 9  // rd = (ra == rb) ? 1 : 0
	CMPLT  Op = 10 // rd = (ra < rb) signed
	CMPLTU Op = 11 // rd = (ra < rb) unsigned
	MPYLU  Op = 12 // rd = lowhalf(ra) * lowhalf(rb), unsigned
	ADDI   Op = 13 // rd = ra + sext(imm16)
	ANDI   Op = 14 // rd = ra & zext(imm16)
	ORI    Op = 15 // rd = ra | zext(imm16)
	LD     Op = 16 // rd = mem[ra + sext(imm12)]
	ST     Op = 17 // mem[ra + sext(imm12)] = rb
	BEQZ   Op = 18 // if ra == 0: pc = pc + sext(imm16)   (slot 0 only)
	BNEZ   Op = 19 // if ra != 0: pc = pc + sext(imm16)   (slot 0 only)
	GOTO   Op = 20 // pc = pc + sext(imm16)               (slot 0 only)
	NumOps Op = 21
)

var opNames = [...]string{
	"nop", "add", "sub", "and", "or", "xor", "sll", "srl", "sra",
	"cmpeq", "cmplt", "cmpltu", "mpylu", "addi", "andi", "ori",
	"ld", "st", "beqz", "bnez", "goto",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Operand-usage predicates used by both the assembler and the
// hardware control decoder.

// WritesReg reports whether the op writes rd.
func (o Op) WritesReg() bool {
	switch o {
	case NOP, ST, BEQZ, BNEZ, GOTO:
		return false
	}
	return o < NumOps
}

// ReadsRb reports whether the op reads the rb register operand.
func (o Op) ReadsRb() bool {
	switch o {
	case ADD, SUB, AND, OR, XOR, SLL, SRL, SRA, CMPEQ, CMPLT, CMPLTU, MPYLU, ST:
		return true
	}
	return false
}

// UsesImm16 reports whether the op consumes the 16-bit immediate.
func (o Op) UsesImm16() bool {
	switch o {
	case ADDI, ANDI, ORI, BEQZ, BNEZ, GOTO:
		return true
	}
	return false
}

// UsesImm12 reports whether the op consumes the 12-bit memory offset.
func (o Op) UsesImm12() bool { return o == LD || o == ST }

// IsBranch reports whether the op redirects the PC.
func (o Op) IsBranch() bool { return o == BEQZ || o == BNEZ || o == GOTO }

// Instr is one decoded operation.
type Instr struct {
	Op    Op
	Rd    uint8 // destination register
	Ra    uint8 // first source register
	Rb    uint8 // second source register
	Imm16 int32 // sign- or zero-extended by the consumer per op
	Imm12 int32 // memory offset, sign-extended
}

// Bundle is one VLIW instruction word: one operation per slot.
type Bundle []Instr

// Encoding layout (32 bits per operation):
//
//	[31:27] opcode
//	[26:22] rd
//	[21:17] ra
//	[16:12] rb
//	[15: 0] imm16 (overlaps rb; ops use one or the other)
//	[11: 0] imm12 (memory ops only; does not overlap rb)
const (
	opShift = 27
	rdShift = 22
	raShift = 17
	rbShift = 12

	regMask   = 0x1F
	imm16Mask = 0xFFFF
	imm12Mask = 0xFFF
)

// Encode packs an instruction into its 32-bit binary form.
func Encode(in Instr) uint32 {
	w := uint32(in.Op) << opShift
	w |= uint32(in.Rd&regMask) << rdShift
	w |= uint32(in.Ra&regMask) << raShift
	switch {
	case in.Op.UsesImm16():
		w |= uint32(in.Imm16) & imm16Mask
	case in.Op.UsesImm12():
		w |= uint32(in.Rb&regMask) << rbShift
		w |= uint32(in.Imm12) & imm12Mask
	default:
		w |= uint32(in.Rb&regMask) << rbShift
	}
	return w
}

// Decode unpacks a 32-bit operation word.
func Decode(w uint32) Instr {
	op := Op(w >> opShift)
	in := Instr{
		Op: op,
		Rd: uint8(w >> rdShift & regMask),
		Ra: uint8(w >> raShift & regMask),
		Rb: uint8(w >> rbShift & regMask),
	}
	in.Imm16 = signExtend(int32(w&imm16Mask), 16)
	in.Imm12 = signExtend(int32(w&imm12Mask), 12)
	return in
}

func signExtend(v int32, bits uint) int32 {
	shift := 32 - bits
	return v << shift >> shift
}

// EncodeBundle packs a bundle into per-slot words, padding missing
// slots with NOPs up to the given slot count.
func EncodeBundle(b Bundle, slots int) []uint32 {
	out := make([]uint32, slots)
	for i := 0; i < slots; i++ {
		if i < len(b) {
			out[i] = Encode(b[i])
		} else {
			out[i] = Encode(Instr{Op: NOP})
		}
	}
	return out
}

func (in Instr) String() string {
	switch {
	case in.Op == NOP:
		return "nop"
	case in.Op.IsBranch():
		if in.Op == GOTO {
			return fmt.Sprintf("goto %+d", in.Imm16)
		}
		return fmt.Sprintf("%s $r%d, %+d", in.Op, in.Ra, in.Imm16)
	case in.Op == LD:
		return fmt.Sprintf("ld $r%d, %d($r%d)", in.Rd, in.Imm12, in.Ra)
	case in.Op == ST:
		return fmt.Sprintf("st $r%d, %d($r%d)", in.Rb, in.Imm12, in.Ra)
	case in.Op.UsesImm16():
		return fmt.Sprintf("%s $r%d, $r%d, %d", in.Op, in.Rd, in.Ra, in.Imm16)
	default:
		return fmt.Sprintf("%s $r%d, $r%d, $r%d", in.Op, in.Rd, in.Ra, in.Rb)
	}
}
