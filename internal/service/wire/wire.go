// Package wire defines the JSON wire schema of the flow's report
// types — Monte Carlo characterizations, voltage-island partitions,
// power reports, DRC reports and the service's scenario sweeps — with
// converters from the in-memory engine types. The vipiped service and
// the -json modes of the cmd/ tools share these codecs, so a CLI run
// and a service response are byte-compatible for the same artifact.
//
// The DTOs are plain data: every field is exported, JSON-tagged in
// snake_case, and holds no pointers into engine state, so a decoded
// report is safe to retain after the flow that produced it is gone.
package wire

import (
	"encoding/json"
	"io"

	"vipipe/internal/drc"
	"vipipe/internal/mc"
	"vipipe/internal/netlist"
	"vipipe/internal/power"
	"vipipe/internal/tmodel"
	"vipipe/internal/vi"
	"vipipe/internal/yield"
)

// Encode writes v as indented JSON, the canonical rendering of every
// report the service and the -json CLI modes emit.
func Encode(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// MCStage is the wire form of one pipeline stage's slack distribution.
type MCStage struct {
	Stage         string  `json:"stage"`
	MuPS          float64 `json:"mu_ps"`
	SigmaPS       float64 `json:"sigma_ps"`
	ViolFrac      float64 `json:"viol_frac"`
	ViolProb      float64 `json:"viol_prob"`
	ChiSqPValue   float64 `json:"chisq_p"`
	ChiSqAccepted bool    `json:"chisq_accepted"`
	KSPValue      float64 `json:"ks_p"`
	KSAccepted    bool    `json:"ks_accepted"`
	Endpoints     int     `json:"endpoints"`
	FitError      string  `json:"fit_error,omitempty"`
}

// MCResult is the wire form of a Monte Carlo characterization at one
// chip position, including its scenario classification.
type MCResult struct {
	Position        string    `json:"position"`
	XMM             float64   `json:"x_mm"`
	YMM             float64   `json:"y_mm"`
	ClockPS         float64   `json:"clock_ps"`
	Samples         int       `json:"samples"`
	Requested       int       `json:"requested"`
	SkippedSamples  []int     `json:"skipped_samples,omitempty"`
	Scenario        int       `json:"scenario"`
	ViolatingStages []string  `json:"violating_stages,omitempty"`
	Stages          []MCStage `json:"stages"`
}

// FromMCResult converts an engine result. Stages appear in pipeline
// order (the classification stages first, then any others the result
// carries).
func FromMCResult(r *mc.Result) MCResult {
	sc, viol := r.Classify(0)
	out := MCResult{
		Position:       r.Pos.Name,
		XMM:            r.Pos.XMM,
		YMM:            r.Pos.YMM,
		ClockPS:        r.ClockPS,
		Samples:        r.Samples,
		Requested:      r.Requested,
		SkippedSamples: append([]int(nil), r.Skipped...),
		Scenario:       int(sc),
	}
	for _, st := range viol {
		out.ViolatingStages = append(out.ViolatingStages, st.String())
	}
	for st := netlist.Stage(0); st < netlist.NumStages; st++ {
		d := r.PerStage[st]
		if d == nil {
			continue
		}
		out.Stages = append(out.Stages, MCStage{
			Stage:         st.String(),
			MuPS:          d.Fit.Mu,
			SigmaPS:       d.Fit.Sigma,
			ViolFrac:      d.ViolFrac,
			ViolProb:      d.ViolProb,
			ChiSqPValue:   d.GOF.PValue,
			ChiSqAccepted: d.GOF.Accepted,
			KSPValue:      d.KS.PValue,
			KSAccepted:    d.KS.Accepted,
			Endpoints:     d.Endpoints,
			FitError:      d.FitErr,
		})
	}
	return out
}

// Island is the wire form of one nested voltage island.
type Island struct {
	Index  int     `json:"index"`
	FromUM float64 `json:"from_um"`
	ToUM   float64 `json:"to_um"`
	Cells  int     `json:"cells"`
}

// Partition is the wire form of a voltage-island partition. Shifter
// fields are zero until level-shifter insertion has run.
type Partition struct {
	Strategy        string   `json:"strategy"`
	StartSide       string   `json:"start_side"`
	Islands         []Island `json:"islands"`
	Shifters        int      `json:"shifters"`
	ShifterAreaFrac float64  `json:"shifter_area_frac"`
}

// FromPartition converts an engine partition.
func FromPartition(p *vi.Partition) Partition {
	out := Partition{
		Strategy:  p.Strategy.String(),
		StartSide: p.StartSide.String(),
		Shifters:  len(p.Shifters),
	}
	if len(p.Shifters) > 0 {
		out.ShifterAreaFrac = p.ShifterAreaFrac()
	}
	for _, isl := range p.Islands {
		out.Islands = append(out.Islands, Island{
			Index:  isl.Index,
			FromUM: isl.FromUM,
			ToUM:   isl.ToUM,
			Cells:  len(isl.Cells),
		})
	}
	return out
}

// UnitPower is the wire form of a per-unit (or per-rail) power split.
type UnitPower struct {
	Unit      string  `json:"unit,omitempty"`
	DynamicMW float64 `json:"dynamic_mw"`
	LeakMW    float64 `json:"leak_mw"`
	TotalMW   float64 `json:"total_mw"`
}

// PowerReport is the wire form of a power analysis.
type PowerReport struct {
	FreqMHz       float64     `json:"freq_mhz"`
	DynamicMW     float64     `json:"dynamic_mw"`
	LeakMW        float64     `json:"leak_mw"`
	TotalMW       float64     `json:"total_mw"`
	ByUnit        []UnitPower `json:"by_unit"`
	ShifterDynMW  float64     `json:"shifter_dyn_mw"`
	ShifterLeakMW float64     `json:"shifter_leak_mw"`
	ShifterFrac   float64     `json:"shifter_frac"`
	LowRail       UnitPower   `json:"low_rail"`
	HighRail      UnitPower   `json:"high_rail"`
}

// FromPowerReport converts an engine power report. The per-instance
// leakage vector is deliberately dropped: it is engine-internal detail
// and would dominate the payload.
func FromPowerReport(r *power.Report) PowerReport {
	out := PowerReport{
		FreqMHz:       r.FreqMHz,
		DynamicMW:     r.DynamicMW,
		LeakMW:        r.LeakMW,
		TotalMW:       r.TotalMW(),
		ShifterDynMW:  r.ShifterDynMW,
		ShifterLeakMW: r.ShifterLeakMW,
		ShifterFrac:   r.ShifterFrac(),
		LowRail:       fromUnit(r.ByDomain[0]),
		HighRail:      fromUnit(r.ByDomain[1]),
	}
	for _, u := range r.ByUnit {
		out.ByUnit = append(out.ByUnit, fromUnit(u))
	}
	return out
}

func fromUnit(u power.UnitPower) UnitPower {
	return UnitPower{Unit: u.Unit, DynamicMW: u.DynamicMW, LeakMW: u.LeakMW, TotalMW: u.TotalMW()}
}

// DRCViolation is one broken design-rule invariant on the wire.
type DRCViolation struct {
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

// DRCReport is the wire form of a design-rule-check run.
type DRCReport struct {
	Clean      bool           `json:"clean"`
	Violations []DRCViolation `json:"violations,omitempty"`
	Truncated  int            `json:"truncated,omitempty"`
}

// FromDRCReport converts an engine DRC report.
func FromDRCReport(r *drc.Report) DRCReport {
	out := DRCReport{Clean: r.Clean(), Truncated: r.Truncated}
	for _, v := range r.Violations {
		out.Violations = append(out.Violations, DRCViolation{Rule: v.Rule, Msg: v.Msg})
	}
	return out
}

// SweepEntry is one chip position of a scenario sweep: the power of
// the VI design with the detected scenario's islands raised, next to
// the chip-wide high-Vdd baseline (the Fig. 5 / Fig. 6 comparison).
type SweepEntry struct {
	Position   string      `json:"position"`
	Scenario   int         `json:"scenario"`
	VI         PowerReport `json:"vi"`
	ChipWide   PowerReport `json:"chip_wide"`
	TotalRatio float64     `json:"total_ratio"`
	LeakRatio  float64     `json:"leak_ratio"`
}

// Sweep is the wire form of a full A-D scenario sweep under one
// slicing strategy.
type Sweep struct {
	Strategy string       `json:"strategy"`
	Entries  []SweepEntry `json:"entries"`
}

// WhatIfStage is one pipeline stage of a what-if answer.
type WhatIfStage struct {
	Stage        string  `json:"stage"`
	WorstSlackPS float64 `json:"worst_slack_ps"`
	Endpoint     int     `json:"endpoint"`
}

// WhatIfAnswer is the wire form of one composed (or fallback-exact)
// what-if evaluation.
type WhatIfAnswer struct {
	Raise        int     `json:"raise"`
	Shifters     bool    `json:"shifters,omitempty"`
	CritPS       float64 `json:"crit_ps"`
	FmaxMHz      float64 `json:"fmax_mhz"`
	WorstSlackPS float64 `json:"worst_slack_ps"`
	// BoundPS is the model's stated error bound; 0 when Exact, which
	// marks an answer from the exact-STA fallback path.
	BoundPS   float64       `json:"bound_ps"`
	Exact     bool          `json:"exact"`
	Crossings int           `json:"crossings,omitempty"`
	ShifterPS float64       `json:"shifter_ps,omitempty"`
	Stages    []WhatIfStage `json:"stages"`
}

// FromWhatIfAnswer converts an engine answer for the query echo
// (raise, shifters).
func FromWhatIfAnswer(raise int, shifters bool, a tmodel.Answer) WhatIfAnswer {
	out := WhatIfAnswer{
		Raise:        raise,
		Shifters:     shifters,
		CritPS:       a.CritPS,
		FmaxMHz:      a.FmaxMHz,
		WorstSlackPS: a.WorstSlackPS,
		BoundPS:      a.BoundPS,
		Exact:        a.Exact,
		Crossings:    a.Crossings,
		ShifterPS:    a.ShifterPS,
	}
	for _, st := range a.PerStage {
		out.Stages = append(out.Stages, WhatIfStage{
			Stage:        st.Stage.String(),
			WorstSlackPS: st.WorstSlackPS,
			Endpoint:     int(st.Endpoint),
		})
	}
	return out
}

// WhatIf is the wire form of a whatif job: each query's answer in
// request order against one cached timing model.
type WhatIf struct {
	Strategy string         `json:"strategy"`
	Position string         `json:"position"`
	ClockPS  float64        `json:"clock_ps"`
	Islands  int            `json:"islands"`
	Answers  []WhatIfAnswer `json:"answers"`
}

// YieldPoint is one exposure-field position of a yield surface.
type YieldPoint struct {
	Position string  `json:"position"`
	XMM      float64 `json:"x_mm"`
	YMM      float64 `json:"y_mm"`
	Key      string  `json:"key"`
	Samples  int64   `json:"samples"`
	Shards   int     `json:"shards"`
	MeanPS   float64 `json:"mean_ps"`
	StdPS    float64 `json:"std_ps"`
	MinPS    float64 `json:"min_ps"`
	MaxPS    float64 `json:"max_ps"`
	// Yields[i] is the yield at PeriodsPS[i] of the enclosing surface.
	Yields []float64 `json:"yields"`
	// Overlay statistics, present when the plan disturbed the position.
	HasOverlay bool      `json:"has_overlay,omitempty"`
	OvMeanPS   float64   `json:"ov_mean_ps,omitempty"`
	OvStdPS    float64   `json:"ov_std_ps,omitempty"`
	OvMinPS    float64   `json:"ov_min_ps,omitempty"`
	OvMaxPS    float64   `json:"ov_max_ps,omitempty"`
	OvYields   []float64 `json:"ov_yields,omitempty"`
}

// Surface is the wire form of a field-sweep yield surface: per-position
// yield-vs-period curves on a shared axis, in row-major grid order.
type Surface struct {
	PlanHash  string       `json:"plan_hash"`
	ClockPS   float64      `json:"clock_ps"`
	NX        int          `json:"nx,omitempty"`
	NY        int          `json:"ny,omitempty"`
	PeriodsPS []float64    `json:"periods_ps"`
	Positions []YieldPoint `json:"positions"`
}

// FromSurface converts an engine yield surface.
func FromSurface(s *yield.Surface) Surface {
	out := Surface{
		PlanHash:  s.PlanHash,
		ClockPS:   s.ClockPS,
		NX:        s.NX,
		NY:        s.NY,
		PeriodsPS: append([]float64(nil), s.PeriodsPS...),
	}
	for _, p := range s.Positions {
		out.Positions = append(out.Positions, YieldPoint{
			Position:   p.Name,
			XMM:        p.XMM,
			YMM:        p.YMM,
			Key:        p.Key,
			Samples:    p.Samples,
			Shards:     p.Shards,
			MeanPS:     p.MeanPS,
			StdPS:      p.StdPS,
			MinPS:      p.MinPS,
			MaxPS:      p.MaxPS,
			Yields:     append([]float64(nil), p.Yields...),
			HasOverlay: p.HasOverlay,
			OvMeanPS:   p.OvMeanPS,
			OvStdPS:    p.OvStdPS,
			OvMinPS:    p.OvMinPS,
			OvMaxPS:    p.OvMaxPS,
			OvYields:   append([]float64(nil), p.OvYields...),
		})
	}
	return out
}
