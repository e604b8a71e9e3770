// Package verilog emits a mapped netlist as structural Verilog: the
// gate-level interchange format every commercial flow consumes. The
// output instantiates the library cells by name with explicit pin
// connections (A, B, C, D inputs, Z output, plus CK/D/Q for flops), so
// the netlist can be inspected, diffed, or fed to external tools
// alongside the SDF and DEF views.
package verilog

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"vipipe/internal/netlist"
)

// inputPins names the input pins of combinational cells in order.
var inputPins = [...]string{"A", "B", "C", "D"}

// Write emits the netlist as one structural Verilog module. Sequential
// cells get an implicit clock port `clk`; primary inputs and outputs
// become module ports.
func Write(w io.Writer, nl *netlist.Netlist) error {
	bw := bufio.NewWriter(w)
	name := sanitizeID(nl.Name)

	// Ports: clk (when sequential cells exist), PIs, POs.
	hasSeq := len(nl.Sequentials()) > 0
	var ports []string
	if hasSeq {
		ports = append(ports, "clk")
	}
	poSet := make(map[int]bool, len(nl.POs))
	for _, n := range nl.POs {
		poSet[n] = true
	}
	for _, n := range nl.PIs {
		ports = append(ports, netName(nl, n))
	}
	for _, n := range nl.POs {
		ports = append(ports, netName(nl, n))
	}
	fmt.Fprintf(bw, "// generated by vipipe from netlist %q\n", nl.Name)
	fmt.Fprintf(bw, "module %s (%s);\n", name, strings.Join(ports, ", "))
	if hasSeq {
		fmt.Fprintf(bw, "  input clk;\n")
	}
	for _, n := range nl.PIs {
		fmt.Fprintf(bw, "  input %s;\n", netName(nl, n))
	}
	for _, n := range nl.POs {
		fmt.Fprintf(bw, "  output %s;\n", netName(nl, n))
	}
	// Internal wires: every driven net that is not a port.
	piSet := make(map[int]bool, len(nl.PIs))
	for _, n := range nl.PIs {
		piSet[n] = true
	}
	for i := range nl.Nets {
		if piSet[i] || poSet[i] {
			continue
		}
		if nl.Nets[i].Driver == netlist.NoInst && len(nl.Nets[i].Sinks) == 0 {
			continue // dangling placeholder
		}
		fmt.Fprintf(bw, "  wire %s;\n", netName(nl, i))
	}
	fmt.Fprintf(bw, "\n")

	for i := range nl.Insts {
		inst := &nl.Insts[i]
		c := nl.Cell(i)
		var pins []string
		switch {
		case c.Sequential:
			pins = append(pins,
				fmt.Sprintf(".D(%s)", netName(nl, inst.Inputs[0])),
				".CK(clk)",
				fmt.Sprintf(".Q(%s)", netName(nl, inst.Out)))
		case c.IsTie():
			pins = append(pins, fmt.Sprintf(".Z(%s)", netName(nl, inst.Out)))
		default:
			if len(inst.Inputs) > len(inputPins) {
				return fmt.Errorf("verilog: cell %s has %d inputs, max %d supported",
					c.Name, len(inst.Inputs), len(inputPins))
			}
			for p, n := range inst.Inputs {
				pins = append(pins, fmt.Sprintf(".%s(%s)", inputPins[p], netName(nl, n)))
			}
			pins = append(pins, fmt.Sprintf(".Z(%s)", netName(nl, inst.Out)))
		}
		fmt.Fprintf(bw, "  %s %s (%s);\n", c.Name, sanitizeID(inst.Name), strings.Join(pins, ", "))
	}
	fmt.Fprintf(bw, "endmodule\n")
	return bw.Flush()
}

// netName renders a net reference as a Verilog escaped identifier when
// needed.
func netName(nl *netlist.Netlist, n int) string {
	name := nl.Nets[n].Name
	if name == "" {
		name = fmt.Sprintf("n%d", n)
	}
	return escapeID(name)
}

// sanitizeID turns an arbitrary name into a plain Verilog identifier.
func sanitizeID(s string) string {
	if s == "" {
		return "anon"
	}
	var b strings.Builder
	for i, r := range s {
		ok := r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || (i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeID uses Verilog escaped-identifier syntax for names with
// hierarchy separators or brackets; plain names pass through.
func escapeID(s string) string {
	plain := true
	for i, r := range s {
		ok := r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || (i > 0 && r >= '0' && r <= '9')
		if !ok {
			plain = false
			break
		}
	}
	if plain && s != "" {
		return s
	}
	// Escaped identifiers must contain no whitespace; replace any.
	clean := strings.Map(func(r rune) rune {
		if r == ' ' || r == '\t' || r == '\n' {
			return '_'
		}
		return r
	}, s)
	return `\` + clean + ` `
}
