package tmodel

import (
	"sort"

	"vipipe/internal/cell"
	"vipipe/internal/netlist"
)

// modelMeta is the signature-independent part of a Model.
type modelMeta struct {
	ClockPS      float64
	Islands      int
	MaxDeltaFrac float64
	LnomNM       float64
	Tech         cell.Tech
	ShifterPS    float64
	Pos          string
	Strategy     string
}

// cellData is everything assemble needs to know about one global cell.
type cellData struct {
	base, setup float64
	lg, derate  float64
	lo, hi      float64
	group       int32
	x, y        float64
}

// assemble compiles a set of global-ID path signatures into a Model:
// canonical signature order, local cell IDs assigned in first-use
// order over the sorted signatures, per-sig group sums precomputed.
// The output depends only on the *set* of signatures (and the cell
// data they reference), never on their arrival order.
func assemble(meta modelMeta, sigs []gsig, cellAt func(global int32) cellData) *Model {
	sortSigs(sigs)

	m := &Model{
		ClockPS:      meta.ClockPS,
		Islands:      meta.Islands,
		MaxDeltaFrac: meta.MaxDeltaFrac,
		LnomNM:       meta.LnomNM,
		Tech:         meta.Tech,
		ShifterPS:    meta.ShifterPS,
		Pos:          meta.Pos,
		Strategy:     meta.Strategy,
	}
	local := make(map[int32]int32)
	intern := func(g int32) int32 {
		if id, ok := local[g]; ok {
			return id
		}
		id := int32(m.Cells.NumCells())
		local[g] = id
		d := cellAt(g)
		m.Cells.Inst = append(m.Cells.Inst, g)
		m.Cells.BasePS = append(m.Cells.BasePS, d.base)
		m.Cells.SetupPS = append(m.Cells.SetupPS, d.setup)
		m.Cells.LgNM = append(m.Cells.LgNM, d.lg)
		m.Cells.Derate = append(m.Cells.Derate, d.derate)
		m.Cells.LoScale = append(m.Cells.LoScale, d.lo)
		m.Cells.HiScale = append(m.Cells.HiScale, d.hi)
		m.Cells.Group = append(m.Cells.Group, d.group)
		m.Cells.XUM = append(m.Cells.XUM, d.x)
		m.Cells.YUM = append(m.Cells.YUM, d.y)
		return id
	}

	groups := meta.Islands + 2
	for i := range sigs {
		g := &sigs[i]
		s := Sig{
			Stage:   g.stage,
			Ep:      g.ep,
			Launch:  -1,
			Cap:     -1,
			CapWire: g.capWire,
			SumLo:   make([]float64, groups),
			SumHi:   make([]float64, groups),
		}
		// Sum in path order (launch, then hops) so the accumulation is
		// deterministic.
		addCell := func(g int32) int32 {
			id := intern(g)
			grp := m.Cells.Group[id]
			s.SumLo[grp] += m.Cells.BasePS[id] * m.Cells.LoScale[id]
			s.SumHi[grp] += m.Cells.BasePS[id] * m.Cells.HiScale[id]
			return id
		}
		if g.launch >= 0 {
			s.Launch = addCell(g.launch)
		}
		for j, c := range g.hops {
			s.Hops = append(s.Hops, addCell(c))
			s.HopWire = append(s.HopWire, g.hopWire[j])
			s.WireSum += g.hopWire[j]
		}
		if g.ep != netlist.NoInst {
			s.Cap = intern(g.ep)
		}
		s.WireSum += g.capWire
		m.Sigs = append(m.Sigs, s)
	}
	return m
}

// sortSigs orders signatures canonically: stage, endpoint, launch,
// path length, then the global cell sequence.
func sortSigs(sigs []gsig) {
	sort.Slice(sigs, func(i, j int) bool {
		a, b := &sigs[i], &sigs[j]
		if a.stage != b.stage {
			return a.stage < b.stage
		}
		if a.ep != b.ep {
			return a.ep < b.ep
		}
		if a.launch != b.launch {
			return a.launch < b.launch
		}
		if len(a.hops) != len(b.hops) {
			return len(a.hops) < len(b.hops)
		}
		for k := range a.hops {
			if a.hops[k] != b.hops[k] {
				return a.hops[k] < b.hops[k]
			}
		}
		return false
	})
}
