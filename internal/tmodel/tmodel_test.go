package tmodel

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"sort"
	"testing"

	"vipipe/internal/cell"
	"vipipe/internal/flowerr"
	"vipipe/internal/netlist"
	"vipipe/internal/place"
	"vipipe/internal/sta"
	"vipipe/internal/variation"
	"vipipe/internal/vex"
)

// regionNone mirrors vi.RegionNone; tmodel's inputs are plain
// per-instance slices, so its tests build them without vi.
const regionNone = math.MaxInt32

// fix is the shared extraction fixture: the small vex core with a
// synthetic two-island region split by x position.
type fix struct {
	a    *sta.Analyzer
	kern *sta.Kernel
	in   ExtractInput
}

func newFix(t *testing.T) *fix {
	t.Helper()
	core, err := vex.Build(vex.SmallConfig(), cell.Default65nm())
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.Global(core.NL, place.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, err := sta.New(core.NL, pl)
	if err != nil {
		t.Fatal(err)
	}
	clock := a.Run(1e9, nil).CritPS * 1.02
	derate := a.SlackRecovery(clock, sta.DefaultRecoveryTargets(), 12, 10)
	kern := sta.NewKernel(a)
	n := kern.NumCells()

	vm := variation.Default()
	lg := make([]float64, n)
	xum := make([]float64, n)
	yum := make([]float64, n)
	for i := 0; i < n; i++ {
		cx, cy := pl.Center(i)
		xum[i], yum[i] = cx, cy
		lg[i] = vm.SystematicLgateNM(1+cx/1000, 1+cy/1000)
	}
	// Two nested islands by x position: inner third region 1, middle
	// third region 2, the rest outside every island.
	xs := append([]float64(nil), xum...)
	sort.Float64s(xs)
	t1, t2 := xs[n/3], xs[2*n/3]
	region := make([]int32, n)
	for i := 0; i < n; i++ {
		switch {
		case xum[i] <= t1:
			region[i] = 1
		case xum[i] <= t2:
			region[i] = 2
		default:
			region[i] = regionNone
		}
	}

	return &fix{a: a, kern: kern, in: ExtractInput{
		View:      kern.View(),
		ClockPS:   clock,
		Region:    region,
		Islands:   2,
		LgNM:      lg,
		Derate:    derate,
		XUM:       xum,
		YUM:       yum,
		Tech:      core.NL.Lib.Tech,
		LnomNM:    vm.LnomNM,
		ShifterPS: 12,
		Pos:       "center",
		Strategy:  "grid",
	}}
}

// exactScale builds the full per-instance scale vector for a query,
// with the same recipe the extractor validates against.
func (f *fix) exactScale(raise int, ov *Disc) []float64 {
	in := &f.in
	n := len(in.LgNM)
	loS := in.Tech.DelayScaler(in.Tech.VddLow)
	hiS := in.Tech.DelayScaler(in.Tech.VddHigh)
	var deltaNM, r2 float64
	if ov != nil {
		deltaNM = in.LnomNM * ov.DeltaFrac
		r2 = ov.RMM * ov.RMM
	}
	scale := make([]float64, n)
	for i := 0; i < n; i++ {
		raised := in.Region[i] >= 1 && in.Region[i] <= int32(raise)
		lg := in.LgNM[i]
		if ov != nil {
			dx := in.XUM[i]/1000 - ov.XMM
			dy := in.YUM[i]/1000 - ov.YMM
			if dx*dx+dy*dy <= r2 {
				lg += deltaNM
			}
		}
		s := loS(lg)
		if raised {
			s = hiS(lg)
		}
		scale[i] = s * in.Derate[i]
	}
	return scale
}

func encodeModel(t *testing.T, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEquivalenceWithinBound pins composed answers to full STA within
// the model's stated bound, on queries distinct from the validation
// probes (intermediate overlay positions and excursions, all raises).
func TestEquivalenceWithinBound(t *testing.T) {
	f := newFix(t)
	m, err := Extract(f.in)
	if err != nil {
		t.Fatal(err)
	}
	if m.BoundPS <= 0 {
		t.Fatalf("BoundPS = %g, want > 0", m.BoundPS)
	}
	minX, maxX := minMax(f.in.XUM)
	minY, maxY := minMax(f.in.YUM)
	span := math.Max(maxX-minX, maxY-minY) / 1000
	var discs []*Disc
	discs = append(discs, nil)
	for _, fx := range []float64{0.45, 0.6} {
		for _, df := range []float64{-0.04, 0.03, 0.08} {
			discs = append(discs, &Disc{
				XMM:       (minX + fx*(maxX-minX)) / 1000,
				YMM:       (minY + (1-fx)*(maxY-minY)) / 1000,
				RMM:       0.3 * span,
				DeltaFrac: df,
			})
		}
	}
	frame := &sta.Frame{}
	for raise := 0; raise <= f.in.Islands; raise++ {
		for di, ov := range discs {
			ans, err := m.Eval(Query{Raise: raise, Overlay: ov})
			if err != nil {
				t.Fatalf("raise %d disc %d: %v", raise, di, err)
			}
			f.kern.RunFrame(frame, f.in.ClockPS, f.exactScale(raise, ov))
			if gap := frame.CritPS - ans.CritPS; gap > m.BoundPS || gap < -1e-6 {
				t.Errorf("raise %d disc %d: crit gap %g outside (-1e-6, bound %g]; exact %g composed %g",
					raise, di, gap, m.BoundPS, frame.CritPS, ans.CritPS)
			}
			for _, sa := range ans.PerStage {
				if !frame.Present[sa.Stage] {
					t.Errorf("raise %d disc %d: stage %v composed but absent exactly", raise, di, sa.Stage)
					continue
				}
				if gap := sa.WorstSlackPS - frame.Lanes[sa.Stage].WorstSlack; gap > m.BoundPS || gap < -1e-6 {
					t.Errorf("raise %d disc %d stage %v: slack gap %g outside (-1e-6, bound %g]",
						raise, di, sa.Stage, gap, m.BoundPS)
				}
			}
			if ans.Exact {
				t.Errorf("composed answer marked exact")
			}
			if math.Abs(ans.FmaxMHz-sta.FmaxMHz(ans.CritPS)) > 1e-12 {
				t.Errorf("FmaxMHz inconsistent with CritPS")
			}
		}
	}
}

// TestRaiseMonotonic sanity-checks composition physics: raising more
// islands never slows the composed critical path.
func TestRaiseMonotonic(t *testing.T) {
	f := newFix(t)
	m, err := Extract(f.in)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for raise := 0; raise <= m.Islands; raise++ {
		ans, err := m.Eval(Query{Raise: raise})
		if err != nil {
			t.Fatal(err)
		}
		if ans.CritPS > prev+1e-9 {
			t.Fatalf("raise %d crit %g exceeds raise %d crit %g", raise, ans.CritPS, raise-1, prev)
		}
		prev = ans.CritPS
	}
}

// TestDeterministicExtraction locks byte-identical re-extraction.
func TestDeterministicExtraction(t *testing.T) {
	f := newFix(t)
	m1, err := Extract(f.in)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Extract(f.in)
	if err != nil {
		t.Fatal(err)
	}
	b1, b2 := encodeModel(t, m1), encodeModel(t, m2)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("re-extraction changed the encoding: %d vs %d bytes", len(b1), len(b2))
	}
}

// TestExtractRejectsBadInput runs Extract's input checks: each
// malformed input is typed bad input, never a panic.
func TestExtractRejectsBadInput(t *testing.T) {
	f := newFix(t)
	short := func(v []float64) []float64 { return v[:len(v)-1] }
	for _, tc := range []struct {
		name string
		edit func(in *ExtractInput)
	}{
		{"zero view", func(in *ExtractInput) { in.View = sta.KernelView{} }},
		{"zero clock", func(in *ExtractInput) { in.ClockPS = 0 }},
		{"negative clock", func(in *ExtractInput) { in.ClockPS = -1 }},
		{"short lg", func(in *ExtractInput) { in.LgNM = short(in.LgNM) }},
		{"short x", func(in *ExtractInput) { in.XUM = short(in.XUM) }},
		{"short y", func(in *ExtractInput) { in.YUM = short(in.YUM) }},
		{"short region", func(in *ExtractInput) { in.Region = in.Region[1:] }},
		{"short derate", func(in *ExtractInput) { in.Derate = short(in.Derate) }},
		{"negative islands", func(in *ExtractInput) { in.Islands = -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := f.in
			tc.edit(&in)
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Extract panicked: %v", r)
				}
			}()
			if _, err := Extract(in); !errors.Is(err, flowerr.ErrBadInput) {
				t.Fatalf("error %v, want ErrBadInput", err)
			}
		})
	}
}

// TestOutOfDomain locks the fallback trigger: raises beyond the island
// count and overlay excursions beyond the validated range report
// ErrOutOfDomain; malformed discs are plain bad input.
func TestOutOfDomain(t *testing.T) {
	f := newFix(t)
	m, err := Extract(f.in)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []Query{
		{Raise: -1},
		{Raise: m.Islands + 1},
		{Overlay: &Disc{XMM: 0.1, YMM: 0.1, RMM: 0.2, DeltaFrac: m.MaxDeltaFrac * 1.5}},
	} {
		if _, err := m.Eval(q); !errors.Is(err, ErrOutOfDomain) {
			t.Errorf("query %+v: error %v, want ErrOutOfDomain", q, err)
		}
	}
	if _, err := m.Eval(Query{Overlay: &Disc{RMM: -1}}); err == nil || errors.Is(err, ErrOutOfDomain) {
		t.Errorf("negative radius: error %v, want plain bad input", err)
	}
}

// TestShifterEstimate verifies a shifter query only ever adds delay
// and reports the penalty it folded in.
func TestShifterEstimate(t *testing.T) {
	f := newFix(t)
	m, err := Extract(f.in)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := m.Eval(Query{Raise: 1})
	if err != nil {
		t.Fatal(err)
	}
	shifted, err := m.Eval(Query{Raise: 1, Shifters: true})
	if err != nil {
		t.Fatal(err)
	}
	if shifted.CritPS < plain.CritPS {
		t.Fatalf("shifter query sped the path up: %g < %g", shifted.CritPS, plain.CritPS)
	}
	if shifted.ShifterPS != float64(shifted.Crossings)*m.ShifterPS {
		t.Fatalf("penalty %g inconsistent with %d crossings x %g", shifted.ShifterPS, shifted.Crossings, m.ShifterPS)
	}
}

// TestModelCoversAllStages checks extraction keeps every pipeline
// stage the design constrains.
func TestModelCoversAllStages(t *testing.T) {
	f := newFix(t)
	m, err := Extract(f.in)
	if err != nil {
		t.Fatal(err)
	}
	rep := f.a.Run(f.in.ClockPS, nil)
	covered := map[netlist.Stage]bool{}
	for _, s := range m.Sigs {
		covered[s.Stage] = true
	}
	for st, present := range rep.Present {
		if present && !covered[netlist.Stage(st)] {
			t.Errorf("stage %v constrained but not modeled", netlist.Stage(st))
		}
	}
}
