package vi

import (
	"context"
	"errors"
	"math"
	"testing"

	"vipipe/internal/sta"
	"vipipe/internal/tmodel"
)

// TestModelCheckMatchesExactPartition locks the CheckModel refactor to
// the exact path: on the fixture the model-driven binary search must
// land every island boundary where the exact search does, to within
// one granularity step (the final boundary is exact-verified either
// way, so a divergence can only be one lattice point of conservatism).
func TestModelCheckMatchesExactPartition(t *testing.T) {
	f := newFixture(t)
	opts := Options{
		Strategy: Vertical,
		ClockPS:  f.clock,
		Derate:   f.derate,
		Samples:  40,
		Seed:     9,
	}
	exact, err := Generate(context.Background(), f.a, &f.model, f.scenarioPositions(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Check = CheckModel
	composed, err := Generate(context.Background(), f.a, &f.model, f.scenarioPositions(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if composed.NumIslands() != exact.NumIslands() {
		t.Fatalf("island counts diverge: %d vs %d", composed.NumIslands(), exact.NumIslands())
	}
	step := f.pl.DieW * (1.0 / 64)
	identical := true
	for k := range exact.Islands {
		d := math.Abs(composed.Islands[k].ToUM - exact.Islands[k].ToUM)
		if d > step+1e-6 {
			t.Errorf("island %d boundary diverged by %.1fum (> one %.1fum step)", k+1, d, step)
		}
		if d > 1e-9 {
			identical = false
		}
	}
	if identical {
		for i, r := range exact.Region {
			if composed.Region[i] != r {
				t.Fatalf("identical boundaries but region maps diverge at cell %d", i)
			}
		}
	}
}

// TestBuildModelCheckerPreCancelled checks that a cancelled context
// stops the model checker's sample dispatch: the build returns the
// context's error, and dispatch gives up as soon as it sees Done
// instead of walking every remaining sample index.
func TestBuildModelCheckerPreCancelled(t *testing.T) {
	f := newFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := Options{ClockPS: f.clock, Derate: f.derate, Seed: 9}
	opts.setDefaults()
	axis := make([]float64, f.core.NL.NumCells())
	ck, err := buildModelChecker(ctx, f.a, &f.model, f.scenarioPositions()[0], &opts, axis, 0, f.pl.DieW)
	if !errors.Is(err, context.Canceled) || ck != nil {
		t.Fatalf("pre-cancelled build returned (%v, %v), want context.Canceled", ck, err)
	}

	// With a receiver always ready, select picks between the send and
	// Done at random, so a dispatch that stops at Done hands out a few
	// indices at most; one that kept looping would hand out all of them.
	idx := make(chan int)
	go func() {
		for range idx {
		}
	}()
	sent := dispatch(ctx, idx, 1<<20)
	close(idx)
	if sent > 64 {
		t.Fatalf("dispatch handed out %d samples after cancellation", sent)
	}
}

// TestVerifyShifters checks the composed shifter verification: the
// penalty-folded worst slack is finite and never better than the
// plain composed slack.
func TestVerifyShifters(t *testing.T) {
	f := newFixture(t)
	p := f.generate(t, Vertical)

	kern := sta.NewKernel(f.a)
	n := f.core.NL.NumCells()
	xum := make([]float64, n)
	yum := make([]float64, n)
	lg := make([]float64, n)
	for i := 0; i < n; i++ {
		cx, cy := f.pl.Center(i)
		xum[i], yum[i] = cx, cy
		lg[i] = f.model.SystematicLgateNM(cx/1000, cy/1000)
	}
	m, err := tmodel.Extract(tmodel.ExtractInput{
		View:      kern.View(),
		ClockPS:   f.clock,
		Region:    p.Region,
		Islands:   p.NumIslands(),
		LgNM:      lg,
		Derate:    f.derate,
		XUM:       xum,
		YUM:       yum,
		Tech:      f.core.NL.Lib.Tech,
		LnomNM:    f.model.LnomNM,
		ShifterPS: 50,
		Pos:       "center",
		Strategy:  Vertical.String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	worst, err := VerifyShifters(m, p.NumIslands())
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(worst, 0) || math.IsNaN(worst) {
		t.Fatalf("worst slack %g not finite", worst)
	}
	plain := math.Inf(1)
	for k := 0; k <= p.NumIslands(); k++ {
		ans, err := m.Eval(tmodel.Query{Raise: k})
		if err != nil {
			t.Fatal(err)
		}
		if ans.WorstSlackPS < plain {
			plain = ans.WorstSlackPS
		}
	}
	if worst > plain+1e-9 {
		t.Fatalf("shifter-folded slack %g better than plain %g", worst, plain)
	}
}
