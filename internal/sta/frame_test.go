package sta

import (
	"math"
	"math/rand"
	"testing"

	"vipipe/internal/netlist"
)

// TestFrameMatchesReport locks RunFrame's bit-identity contract: for
// any scale vector and clock, the frame's critical path, global worst
// slack and per-stage summaries are exactly what Analyzer.RunInto
// reports.
func TestFrameMatchesReport(t *testing.T) {
	a := coreAnalyzer(t)
	k := NewKernel(a)
	n := k.NumCells()
	clock := a.Run(1e9, nil).CritPS * 1.001
	rng := rand.New(rand.NewSource(11))
	rep := &Report{}
	f := &Frame{}
	for trial := 0; trial < 25; trial++ {
		scale := randScale(rng, n)
		// Sweep the clock down to force violations in some trials.
		c := clock * (0.85 + 0.3*rng.Float64())
		a.RunInto(rep, c, scale)
		k.RunFrame(f, c, scale)

		if math.Float64bits(f.CritPS) != math.Float64bits(rep.CritPS) {
			t.Fatalf("trial %d: CritPS %v != %v", trial, f.CritPS, rep.CritPS)
		}
		if math.Float64bits(f.WorstSlack) != math.Float64bits(rep.WorstSlack) {
			t.Fatalf("trial %d: WorstSlack %v != %v", trial, f.WorstSlack, rep.WorstSlack)
		}
		for st := netlist.Stage(0); st < netlist.NumStages; st++ {
			if rep.Present[st] != f.Present[st] {
				t.Fatalf("trial %d stage %v: present %v, report %v", trial, st, f.Present[st], rep.Present[st])
			}
			if !rep.Present[st] {
				continue
			}
			lane, want := f.Lanes[st], rep.Lanes[st]
			if math.Float64bits(lane.WorstSlack) != math.Float64bits(want.WorstSlack) ||
				lane.Endpoint != want.Endpoint || lane.Endpoints != want.Endpoints {
				t.Fatalf("trial %d stage %v: lane %+v != %+v", trial, st, lane, want)
			}
		}
	}
}

// TestFrameReuse verifies a reused frame holds the same bits a fresh
// one would after re-evaluation at a different operating point.
func TestFrameReuse(t *testing.T) {
	a := coreAnalyzer(t)
	k := NewKernel(a)
	n := k.NumCells()
	rng := rand.New(rand.NewSource(5))
	s1, s2 := randScale(rng, n), randScale(rng, n)
	clock := a.Run(1e9, nil).CritPS

	reused := &Frame{}
	k.RunFrame(reused, clock*0.9, s1)
	k.RunFrame(reused, clock, s2)
	fresh := &Frame{}
	k.RunFrame(fresh, clock, s2)
	if math.Float64bits(reused.CritPS) != math.Float64bits(fresh.CritPS) ||
		reused.Lanes != fresh.Lanes || reused.Present != fresh.Present {
		t.Fatalf("reused frame diverged from fresh: %+v vs %+v", reused, fresh)
	}
}
