// Package tmodel extracts compact interface timing models from a
// placed netlist and answers what-if timing queries by composing them,
// instead of re-walking the full timing graph.
//
// The model follows the blueprint of Li/Chen/Schlichtmann's "Timing
// Model Extraction for Sequential Circuits Considering Process
// Variations" adapted to this flow's query mix: instead of compressed
// arrival distributions at stage boundaries, the extractor probes the
// island-raise corners of the design (islands 1..k at high Vdd for
// every k), backtracks the worst paths per pipeline stage at each
// corner, and stores the union as path signatures — the launch flop,
// the combinational hop cells, the per-hop wire delays and the capture
// setup, with per-cell delay terms precomputed at both supplies. A
// query ("raise island k", "apply overlay disc D", "what do the level
// shifters on the active crossings cost") then re-prices only the
// stored paths: microseconds instead of a full RunInto walk over ~10⁴
// gates.
//
// Because a composed answer maximizes over a subset of the design's
// paths, it is a lower bound on the exact critical path (and its
// slacks upper bounds). The extractor validates the composition
// against exact STA at deterministic probe corners and overlay discs
// and stores the worst observed gap (doubled, floored) as BoundPS: the
// stated error bound of every in-domain answer. Queries outside the
// validated domain — a raise level the design has no island for, an
// overlay excursion beyond MaxDeltaFrac — fail with ErrOutOfDomain so
// the caller can fall back to exact STA (vipipe.EvalWhatIf does).
package tmodel

import (
	"errors"

	"vipipe/internal/cell"
	"vipipe/internal/netlist"
)

// ErrOutOfDomain marks a query that escapes the model's validated
// domain; the caller should re-evaluate with exact STA.
var ErrOutOfDomain = errors.New("tmodel: query outside model validity domain")

// Model is a compact interface timing model of one placed netlist at
// one chip position: the union of worst path signatures over the
// island-raise probe corners, with per-cell low/high-supply delay
// terms precomputed. All fields are pure data (slices and plain
// structs only, no maps or pointers), so a Model round-trips through
// gob unchanged. Its gob bytes are no fingerprint, though: they carry
// gob's process-wide type ids, which depend on what the process
// encoded before.
type Model struct {
	ClockPS float64
	// Islands is the number of nested voltage islands; the valid raise
	// domain is 0..Islands.
	Islands int
	// BoundPS is the stated error bound: at every validation probe,
	// exact CritPS minus the composed CritPS (and the per-stage slack
	// gaps) stayed within this.
	BoundPS float64
	// MaxDeltaFrac bounds the overlay Lgate excursion (|DeltaFrac|)
	// the model answers for; beyond it is out of domain.
	MaxDeltaFrac float64
	// LnomNM is the nominal gate length overlay deltas are fractions
	// of; Tech re-prices in-disc cells at excursed lengths.
	LnomNM float64
	Tech   cell.Tech
	// ShifterPS is the nominal per-crossing level-shifter delay used
	// by shifter-cost estimates.
	ShifterPS float64
	// Pos and Strategy identify the chip position and island strategy
	// the model was extracted for.
	Pos      string
	Strategy string

	Cells CellTable
	Sigs  []Sig
}

// CellTable is the compacted per-cell data of every cell referenced by
// at least one signature, indexed by model-local cell ID.
type CellTable struct {
	// Inst maps local ID to the global netlist instance.
	Inst []int32
	// BasePS/SetupPS are the characterized nominal delays.
	BasePS  []float64
	SetupPS []float64
	// LgNM is the systematic gate length at the model's position;
	// Derate the slack-recovery factor.
	LgNM   []float64
	Derate []float64
	// LoScale/HiScale are the full delay scales (variation x supply x
	// derate) at low and high Vdd.
	LoScale []float64
	HiScale []float64
	// Group is the island group: 1..Islands for island cells,
	// Islands+1 for cells outside every island (never raised).
	Group []int32
	// XUM/YUM are placement centers, for overlay-disc membership.
	XUM []float64
	YUM []float64
}

// NumCells returns the number of distinct cells the signatures touch.
func (t *CellTable) NumCells() int { return len(t.Inst) }

// Sig is one stored path signature: launch flop, combinational hops
// in path order, capture. Delay terms are indexed by model-local cell
// ID; SumLo/SumHi pre-aggregate the cell delays per island group so
// raise-only queries price the path in O(Islands) instead of O(cells).
type Sig struct {
	Stage netlist.Stage
	// Ep is the global endpoint instance (netlist.NoInst for a PO).
	Ep int32
	// Launch is the local ID of the launching flop, or -1 when the
	// path launches from a primary input.
	Launch int32
	// Hops are the combinational cells in path order; HopWire[j] is
	// the wire delay entering Hops[j].
	Hops    []int32
	HopWire []float64
	// CapWire is the wire delay of the endpoint net; Cap the local ID
	// of the capturing flop (-1 for a PO).
	CapWire float64
	Cap     int32
	// SumLo/SumHi[g] is the sum of base*scale over the path's cells
	// (launch + hops) in island group g, at low/high supply; WireSum
	// is the total wire delay including CapWire. Index 0 is unused.
	SumLo   []float64
	SumHi   []float64
	WireSum float64
}

// Disc is a localized Lgate disturbance, mirroring yield.PosOverlay:
// core-local mm center/radius against placement centers in microns,
// DeltaFrac the systematic excursion as a fraction of nominal Lgate.
type Disc struct {
	XMM, YMM, RMM float64
	DeltaFrac     float64
}

// Query is one what-if evaluation against a model.
type Query struct {
	// Raise powers islands 1..Raise at high Vdd (0 = all low).
	Raise int
	// Overlay, when non-nil, applies the disc's Lgate excursion to the
	// cells inside it.
	Overlay *Disc
	// Shifters adds the estimated cost of the level shifters on the
	// path's active domain crossings to the answer.
	Shifters bool
}

// StageAnswer is one pipeline stage's slice of an Answer.
type StageAnswer struct {
	Stage        netlist.Stage
	WorstSlackPS float64
	// Endpoint is the global instance of the worst endpoint
	// (netlist.NoInst for a PO).
	Endpoint int32
}

// Answer is the result of one what-if evaluation.
type Answer struct {
	CritPS       float64
	FmaxMHz      float64
	WorstSlackPS float64
	// PerStage lists the covered stages in ascending stage order.
	PerStage []StageAnswer
	// BoundPS is the model's stated error bound (0 when Exact).
	BoundPS float64
	// Exact marks an answer produced by the exact-STA fallback rather
	// than model composition.
	Exact bool
	// Crossings/ShifterPS report the shifter estimate for Shifters
	// queries: active low-to-high crossings on the stored paths and
	// the composed delay penalty folded into CritPS. The penalty is a
	// first-order composition-only estimate; the exact fallback path
	// ignores Shifters and reports zero crossings.
	Crossings int
	ShifterPS float64
}
