package vi

import (
	"context"
	"math"
	"runtime"
	"sync"

	"vipipe/internal/mc"
	"vipipe/internal/sta"
	"vipipe/internal/stats"
	"vipipe/internal/tmodel"
	"vipipe/internal/variation"
)

// CheckMode selects how island generation verifies a candidate
// boundary compensates a violation scenario.
type CheckMode uint8

const (
	// CheckExact runs a full Monte Carlo SSTA batch per candidate —
	// the byte-stable reference path.
	CheckExact CheckMode = iota
	// CheckModel extracts one compact threshold model per Monte Carlo
	// sample (from the same derived rng streams the exact path draws,
	// so both modes see identical chips) and prices every binary-search
	// candidate against the models instead of re-running STA. The
	// converged boundary is re-verified exactly; if the optimistic
	// model accepted a boundary the exact check rejects, the island
	// falls back to the exact search.
	CheckModel
)

// modelChecker holds the per-sample threshold models of one island
// pass (one violation scenario / chip position).
type modelChecker struct {
	models []*tmodel.ThresholdModel
	sigma  float64
}

// buildModelChecker samples the scenario's chips exactly like mc.Run
// (the same variation.Sampler, the same scale recipe) and extracts a
// threshold model per sample at three probe bounds spanning the
// search interval.
func buildModelChecker(ctx context.Context, a *sta.Analyzer, model *variation.Model, pos variation.Pos, opts *Options, axis []float64, loBound, hiBound float64) (*modelChecker, error) {
	nCells := a.NL.NumCells()
	kern := sta.NewKernel(a)
	view := kern.View()
	tech := &a.NL.Lib.Tech
	probes := []float64{loBound, (loBound + hiBound) / 2, hiBound}

	ck := &modelChecker{
		models: make([]*tmodel.ThresholdModel, opts.Samples),
		sigma:  opts.YieldSigma,
	}
	sampler := model.NewSampler(a.PL, pos, opts.Seed)
	workers := runtime.GOMAXPROCS(0)
	if workers > opts.Samples {
		workers = opts.Samples
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			smp := sampler.Fork()
			lg := make([]float64, nCells)
			lo := make([]float64, nCells)
			hi := make([]float64, nCells)
			scaler := tech.SampleScaler()
			for k := range idx {
				if ctx.Err() != nil {
					continue
				}
				smp.Draw(k, lg)
				scaler.ScalePair(lo, hi, lg, opts.Derate)
				tm, err := tmodel.ExtractThreshold(tmodel.ThresholdInput{
					View:    view,
					ClockPS: opts.ClockPS,
					Axis:    axis,
					LoScale: lo,
					HiScale: hi,
					Probes:  probes,
				})
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					continue
				}
				ck.models[k] = tm
			}
		}()
	}
	dispatch(ctx, idx, opts.Samples)
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return ck, nil
}

// dispatch hands the sample indices 0..n-1 to the workers on idx until
// ctx is done, and returns how many it handed out.
func dispatch(ctx context.Context, idx chan<- int, n int) int {
	for k := 0; k < n; k++ {
		select {
		case idx <- k:
		case <-ctx.Done():
			return k
		}
	}
	return n
}

// meets applies the same per-stage yield decision as the exact path —
// every pipeline stage's fitted slack distribution must clear zero by
// YieldSigma sigmas — over model-composed slacks. Composed slacks
// upper-bound exact slacks, so a model rejection is always sound; an
// acceptance is optimistic and the caller re-verifies the final
// boundary exactly.
func (ck *modelChecker) meets(bound float64) bool {
	slacks := make([][]float64, len(mc.PipelineStages))
	for _, tm := range ck.models {
		r := tm.EvalBound(bound)
		for si, st := range mc.PipelineStages {
			if r.Present[st] {
				slacks[si] = append(slacks[si], r.Slack[st])
			}
		}
	}
	worst := math.Inf(1)
	for si := range slacks {
		if len(slacks[si]) < 2 {
			continue
		}
		fit, err := stats.FitNormal(slacks[si])
		if err != nil {
			return false
		}
		if m := fit.Mu - ck.sigma*fit.Sigma; m < worst {
			worst = m
		}
	}
	return worst >= 0
}

// VerifyShifters checks a partition's level-shifter cost against the
// clock by composing a timing model instead of re-running STA: for
// every violation scenario (islands 1..k raised) it folds the stored
// paths' crossing penalties into the composed slack and returns the
// worst slack seen. A non-negative result means shifter insertion
// cannot break the clock at any scenario, to within the model's
// stated bound.
func VerifyShifters(m *tmodel.Model, numIslands int) (worstSlackPS float64, err error) {
	worstSlackPS = math.Inf(1)
	for k := 0; k <= numIslands; k++ {
		ans, err := m.Eval(tmodel.Query{Raise: k, Shifters: true})
		if err != nil {
			return 0, err
		}
		if ans.WorstSlackPS < worstSlackPS {
			worstSlackPS = ans.WorstSlackPS
		}
	}
	return worstSlackPS, nil
}
