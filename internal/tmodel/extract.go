package tmodel

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"vipipe/internal/cell"
	"vipipe/internal/flowerr"
	"vipipe/internal/netlist"
	"vipipe/internal/sta"
)

// ExtractInput bundles everything extraction needs: a handle on the
// design's timing analyzer plus the per-instance operating data of the
// chip position the model is for.
type ExtractInput struct {
	// View is the analyzer handle (sta.Kernel.View()); extraction times
	// the design through it and never modifies it.
	View    sta.KernelView
	ClockPS float64
	// Region is the per-instance island region, vi.Partition.Region
	// semantics: 1..Islands for island cells, any larger value for
	// cells never raised. nil = no islands.
	Region  []int32
	Islands int
	// LgNM is the systematic gate length per instance at the model's
	// chip position; Derate the slack-recovery factors (nil = ones).
	LgNM   []float64
	Derate []float64
	// XUM/YUM are placement centers in microns.
	XUM, YUM []float64
	Tech     cell.Tech
	LnomNM   float64
	// ShifterPS is the nominal per-crossing level-shifter delay for
	// shifter-cost estimates.
	ShifterPS float64
	Pos       string
	Strategy  string
}

const (
	// pathsPerStage is how many worst endpoints per stage have their
	// paths stored per probe corner.
	pathsPerStage = 4
	// maxDeltaFrac bounds the overlay excursions a model is validated
	// for (Model.MaxDeltaFrac).
	maxDeltaFrac = 0.08
)

// Extract probes the island-raise corners of the design, backtracks
// the worst paths per stage at each corner, and compiles the union
// into a compact Model, validating the composition against exact STA
// to establish BoundPS. Extraction is deterministic: the same input
// produces a byte-identical model.
func Extract(in ExtractInput) (*Model, error) {
	a := in.View.Analyzer()
	if a == nil {
		return nil, flowerr.BadInputf("tmodel: zero timing view")
	}
	n := a.NL.NumCells()
	if n == 0 {
		return nil, flowerr.BadInputf("tmodel: empty netlist")
	}
	if in.ClockPS <= 0 {
		return nil, flowerr.BadInputf("tmodel: clock period %g must be positive", in.ClockPS)
	}
	if len(in.LgNM) != n || len(in.XUM) != n || len(in.YUM) != n {
		return nil, flowerr.BadInputf("tmodel: per-instance inputs cover %d/%d/%d of %d cells",
			len(in.LgNM), len(in.XUM), len(in.YUM), n)
	}
	if in.Region != nil && len(in.Region) != n {
		return nil, flowerr.BadInputf("tmodel: region length %d != %d cells", len(in.Region), n)
	}
	if in.Derate != nil && len(in.Derate) != n {
		return nil, flowerr.BadInputf("tmodel: derate length %d != %d cells", len(in.Derate), n)
	}
	if in.Islands < 0 {
		return nil, flowerr.BadInputf("tmodel: island count %d must be >= 0", in.Islands)
	}

	// Per-instance island group and full low/high scale vectors, the
	// same recipe mc's inner loop applies (cached scaler x derate), so
	// model terms match the exact path bit for bit at the corners.
	group := make([]int32, n)
	for i := 0; i < n; i++ {
		group[i] = int32(in.Islands) + 1
		if in.Region != nil {
			if r := in.Region[i]; r >= 1 && r <= int32(in.Islands) {
				group[i] = r
			}
		}
	}
	loScaler := in.Tech.DelayScaler(in.Tech.VddLow)
	hiScaler := in.Tech.DelayScaler(in.Tech.VddHigh)
	lo := make([]float64, n)
	hi := make([]float64, n)
	for i := 0; i < n; i++ {
		l, h := loScaler(in.LgNM[i]), hiScaler(in.LgNM[i])
		if in.Derate != nil {
			l *= in.Derate[i]
			h *= in.Derate[i]
		}
		lo[i], hi[i] = l, h
	}

	scale := make([]float64, n)
	buildScale := func(raise int, ov *Disc) {
		var deltaNM, r2 float64
		if ov != nil {
			deltaNM = in.LnomNM * ov.DeltaFrac
			r2 = ov.RMM * ov.RMM
		}
		for i := 0; i < n; i++ {
			raised := group[i] <= int32(raise)
			if ov != nil {
				dx := in.XUM[i]/1000 - ov.XMM
				dy := in.YUM[i]/1000 - ov.YMM
				if dx*dx+dy*dy <= r2 {
					lg := in.LgNM[i] + deltaNM
					s := loScaler(lg)
					if raised {
						s = hiScaler(lg)
					}
					if in.Derate != nil {
						s *= in.Derate[i]
					}
					scale[i] = s
					continue
				}
			}
			if raised {
				scale[i] = hi[i]
			} else {
				scale[i] = lo[i]
			}
		}
	}

	// Probe every raise corner with a full timing report, keep the
	// union of worst-path signatures per stage.
	var sigs []gsig
	seen := make(map[string]bool)
	rep := &sta.Report{}
	for raise := 0; raise <= in.Islands; raise++ {
		buildScale(raise, nil)
		a.RunInto(rep, in.ClockPS, scale)
		for _, ep := range worstPerStage(rep.Endpoints, pathsPerStage) {
			s, ok := pathSig(a, ep, a.CriticalPath(rep, ep, scale))
			if !ok {
				continue
			}
			if k := s.key(); !seen[k] {
				seen[k] = true
				sigs = append(sigs, s)
			}
		}
	}
	if len(sigs) == 0 {
		return nil, flowerr.BadInputf("tmodel: no constrained paths to model")
	}

	m := assemble(modelMeta{
		ClockPS:      in.ClockPS,
		Islands:      in.Islands,
		MaxDeltaFrac: maxDeltaFrac,
		LnomNM:       in.LnomNM,
		Tech:         in.Tech,
		ShifterPS:    in.ShifterPS,
		Pos:          in.Pos,
		Strategy:     in.Strategy,
	}, sigs, func(g int32) cellData {
		return cellData{
			base:   a.BaseDelay(int(g)),
			setup:  a.SetupTime(int(g)),
			lg:     in.LgNM[g],
			derate: derateAt(in.Derate, g),
			lo:     lo[g],
			hi:     hi[g],
			group:  group[g],
			x:      in.XUM[g],
			y:      in.YUM[g],
		}
	})

	// Validate the composition against exact STA over the query
	// domain: every raise corner, plus overlay discs at deterministic
	// positions and the extreme excursions. The worst observed gap,
	// doubled with a half-picosecond floor, becomes the stated bound.
	kern := sta.NewKernel(a)
	frame := &sta.Frame{}
	worstGap := 0.0
	probe := func(raise int, ov *Disc) error {
		buildScale(raise, ov)
		kern.RunFrame(frame, in.ClockPS, scale)
		ans, err := m.Eval(Query{Raise: raise, Overlay: ov})
		if err != nil {
			return err
		}
		if g := math.Abs(frame.CritPS - ans.CritPS); g > worstGap {
			worstGap = g
		}
		for _, sa := range ans.PerStage {
			if !frame.Present[sa.Stage] {
				continue
			}
			if g := math.Abs(sa.WorstSlackPS - frame.Lanes[sa.Stage].WorstSlack); g > worstGap {
				worstGap = g
			}
		}
		return nil
	}
	for raise := 0; raise <= in.Islands; raise++ {
		if err := probe(raise, nil); err != nil {
			return nil, err
		}
	}
	minX, maxX := minMax(in.XUM)
	minY, maxY := minMax(in.YUM)
	spanMM := math.Max(maxX-minX, maxY-minY) / 1000
	for _, fx := range []float64{0.3, 0.7} {
		for _, fy := range []float64{0.3, 0.7} {
			for _, df := range []float64{-maxDeltaFrac, maxDeltaFrac} {
				ov := &Disc{
					XMM:       (minX + fx*(maxX-minX)) / 1000,
					YMM:       (minY + fy*(maxY-minY)) / 1000,
					RMM:       0.35 * spanMM,
					DeltaFrac: df,
				}
				for raise := 0; raise <= in.Islands; raise++ {
					if err := probe(raise, ov); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	m.BoundPS = 2*worstGap + 0.5
	return m, nil
}

func derateAt(derate []float64, g int32) float64 {
	if derate == nil {
		return 1
	}
	return derate[g]
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}

// gsig is a path signature in global instance IDs, the intermediate
// representation between backtracking and model assembly.
type gsig struct {
	stage   netlist.Stage
	ep      int32 // global capture flop, netlist.NoInst for a PO
	launch  int32 // global launch flop, -1 for a PI launch
	hops    []int32
	hopWire []float64
	capWire float64
}

// key is the dedup identity of a signature: the endpoint and the exact
// cell sequence (wires are functions of the cells, so they need no
// encoding).
func (s *gsig) key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|%d|%d|", s.stage, s.ep, s.launch)
	for _, c := range s.hops {
		fmt.Fprintf(&b, "%d,", c)
	}
	return b.String()
}

// worstPerStage returns, per covered stage, the k endpoints with the
// smallest slack (stable on ties, so the selection is deterministic).
func worstPerStage(eps []sta.Endpoint, k int) []sta.Endpoint {
	byStage := make([][]sta.Endpoint, netlist.NumStages)
	for _, ep := range eps {
		byStage[ep.Stage] = append(byStage[ep.Stage], ep)
	}
	var out []sta.Endpoint
	for s := range byStage {
		lane := byStage[s]
		sort.SliceStable(lane, func(i, j int) bool { return lane[i].Slack < lane[j].Slack })
		if len(lane) > k {
			lane = lane[:k]
		}
		out = append(out, lane...)
	}
	return out
}

// pathSig converts the worst path into endpoint ep, as
// Analyzer.CriticalPath returns it (startpoint first), into a
// signature. Every hop's wire delay is that of the net entering it:
// the net of the step before. A path that does not start at a flop or a primary input
// (it runs back into a tie cell, or into a cell with no finite input)
// carries no finite arrival to model and is dropped.
func pathSig(a *sta.Analyzer, ep sta.Endpoint, path []sta.PathStep) (gsig, bool) {
	s := gsig{
		stage:   ep.Stage,
		ep:      int32(ep.Inst),
		launch:  -1,
		capWire: a.WireDelay(ep.Net),
	}
	if start := path[0].Inst; start != netlist.NoInst {
		if !a.NL.IsSequential(start) {
			return s, false
		}
		s.launch = int32(start)
	}
	for j := 1; j < len(path); j++ {
		s.hops = append(s.hops, int32(path[j].Inst))
		s.hopWire = append(s.hopWire, a.WireDelay(path[j-1].Net))
	}
	return s, true
}
