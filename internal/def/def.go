// Package def reads and writes a DEF (Design Exchange Format) subset:
// die area, standard-cell rows, and placed components. The paper's
// flow obtains "coarse placement ... through the def file"; this
// package provides the same interchange for our placer.
package def

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"vipipe/internal/flowerr"
	"vipipe/internal/place"
)

// dbuPerMicron is the DEF distance resolution.
const dbuPerMicron = 1000

// Write emits the placement as DEF.
func Write(w io.Writer, p *place.Placement) error {
	if err := p.Validate(); err != nil {
		return flowerr.BadInputf("def: refusing to write invalid placement: %w", err)
	}
	bw := bufio.NewWriter(w)
	dbu := func(um float64) int { return int(um*dbuPerMicron + 0.5) }
	fmt.Fprintf(bw, "VERSION 5.8 ;\n")
	fmt.Fprintf(bw, "DESIGN %s ;\n", p.NL.Name)
	fmt.Fprintf(bw, "UNITS DISTANCE MICRONS %d ;\n", dbuPerMicron)
	fmt.Fprintf(bw, "DIEAREA ( 0 0 ) ( %d %d ) ;\n", dbu(p.DieW), dbu(p.DieH))
	for r := 0; r < p.Rows; r++ {
		fmt.Fprintf(bw, "ROW row_%d coresite 0 %d N ;\n", r, dbu(float64(r)*p.RowHeight))
	}
	fmt.Fprintf(bw, "COMPONENTS %d ;\n", p.NL.NumCells())
	for i := range p.NL.Insts {
		fmt.Fprintf(bw, "- %s %s + PLACED ( %d %d ) N ;\n",
			escape(p.NL.Insts[i].Name), p.NL.Cell(i).Name, dbu(p.X[i]), dbu(p.Y[i]))
	}
	fmt.Fprintf(bw, "END COMPONENTS\n")
	fmt.Fprintf(bw, "END DESIGN\n")
	return bw.Flush()
}

// escape replaces spaces in hierarchical names (DEF splits on blanks).
func escape(s string) string { return strings.ReplaceAll(s, " ", "_") }

// File is a parsed DEF subset.
type File struct {
	Design     string
	DieW, DieH float64
	Rows       int
	// Placed maps component name to its location in microns.
	Placed map[string][2]float64
}

// Parse reads the subset produced by Write.
//
//lint:ignore deadcode round-trip oracle of Write in TestRoundTrip, the FuzzParseDEF target and TestCorruptedDEFNeverPanics (make fault)
func Parse(r io.Reader) (*File, error) {
	f := &File{Placed: make(map[string][2]float64)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inComponents := false
	toUM := func(s string) (float64, error) {
		v, err := strconv.Atoi(s)
		return float64(v) / dbuPerMicron, err
	}
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch {
		case fields[0] == "DESIGN" && len(fields) >= 2:
			f.Design = fields[1]
		case fields[0] == "DIEAREA" && len(fields) >= 9:
			w, err1 := toUM(fields[6])
			h, err2 := toUM(fields[7])
			if err1 != nil || err2 != nil {
				return nil, flowerr.BadInputf("def: bad DIEAREA %q", sc.Text())
			}
			f.DieW, f.DieH = w, h
		case fields[0] == "ROW":
			f.Rows++
		case fields[0] == "COMPONENTS":
			inComponents = true
		case fields[0] == "END" && len(fields) >= 2 && fields[1] == "COMPONENTS":
			inComponents = false
		case inComponents && fields[0] == "-":
			// - name cell + PLACED ( x y ) N ;
			if len(fields) < 10 {
				return nil, flowerr.BadInputf("def: bad component line %q", sc.Text())
			}
			x, err1 := toUM(fields[6])
			y, err2 := toUM(fields[7])
			if err1 != nil || err2 != nil {
				return nil, flowerr.BadInputf("def: bad coordinates in %q", sc.Text())
			}
			f.Placed[fields[1]] = [2]float64{x, y}
		}
	}
	if err := sc.Err(); err != nil {
		// Scanner errors on in-memory input (e.g. a line past the 1MB
		// buffer) mean the text is malformed, not that IO failed.
		return nil, flowerr.BadInputf("def: %w", err)
	}
	if len(f.Placed) == 0 {
		return nil, flowerr.BadInputf("def: no placed components found")
	}
	return f, nil
}

// Apply copies parsed component locations onto a placement for the
// same netlist (matching by instance name).
//
//lint:ignore deadcode completes the DEF round trip in TestRoundTrip and TestCorruptedDEFNeverPanics (make fault)
func (f *File) Apply(p *place.Placement) error {
	byName := make(map[string]int, p.NL.NumCells())
	for i := range p.NL.Insts {
		byName[escape(p.NL.Insts[i].Name)] = i
	}
	applied := 0
	for name, xy := range f.Placed {
		i, ok := byName[name]
		if !ok {
			return flowerr.BadInputf("def: component %q not in netlist", name)
		}
		p.X[i], p.Y[i] = xy[0], xy[1]
		applied++
	}
	if applied != p.NL.NumCells() {
		return flowerr.BadInputf("def: placed %d of %d components", applied, p.NL.NumCells())
	}
	return nil
}
