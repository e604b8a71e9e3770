package vipipe

import (
	"reflect"
	"testing"

	"vipipe/internal/drc"
	"vipipe/internal/mc"
	"vipipe/internal/netlist"
	"vipipe/internal/power"
	"vipipe/internal/stats"
	"vipipe/internal/variation"
	"vipipe/internal/yield"
)

func TestDiskCodecsSelection(t *testing.T) {
	codecs := DiskCodecs()
	for _, node := range []string{NodeLadder, NodeDRC, "mc/A", "mc/D", "power/chipwide/A", "power/vertical/2/B"} {
		if codecs(node) == nil {
			t.Errorf("node %s: no codec, want persistable", node)
		}
	}
	// Engine-state artifacts hold live netlists/analyzers and must
	// never round-trip through disk.
	for _, node := range []string{NodeSynth, NodePlace, NodeAnalyze, NodeWorkload, "vi/vertical", "vi/horizontal"} {
		if codecs(node) != nil {
			t.Errorf("node %s: has a codec, want memory-only", node)
		}
	}
}

func roundTrip(t *testing.T, node string, v any) any {
	t.Helper()
	c := DiskCodecs()(node)
	if c == nil {
		t.Fatalf("no codec for %s", node)
	}
	data, err := c.Encode(v)
	if err != nil {
		t.Fatalf("encode %s: %v", node, err)
	}
	out, err := c.Decode(data)
	if err != nil {
		t.Fatalf("decode %s: %v", node, err)
	}
	return out
}

// mcResult is a characterization with every field set, one stage's
// fit failed.
func mcResult() *mc.Result {
	return &mc.Result{
		Pos:       variation.Pos{Name: "A", XMM: 1.5, YMM: 2.5},
		ClockPS:   1234.5,
		Samples:   118,
		Requested: 120,
		Skipped:   []int{3, 77},
		PerStage: map[netlist.Stage]*mc.StageDist{
			1: {
				Stage:    1,
				SlackPS:  []float64{-1, 0, 2.5},
				Fit:      stats.Normal{Mu: 0.5, Sigma: 1.25},
				GOF:      stats.GOFResult{ChiSquare: 3.2, DOF: 5, PValue: 0.66, Accepted: true, Bins: 8},
				KS:       stats.GOFResult{PValue: 0.4, Accepted: true},
				ViolFrac: 0.33, ViolProb: 0.31, Endpoints: 42,
			},
			2: {Stage: 2, FitErr: "fit rejected: sigma collapsed"},
		},
		CritPS:         []float64{1200, 1250, 1300},
		StageCriticals: map[netlist.Stage]map[int]int{1: {7: 5}, 2: {9: 2}},
	}
}

func TestMCResultRoundTrip(t *testing.T) {
	in := mcResult()
	got := roundTrip(t, "mc/A", in).(*mc.Result)
	if !reflect.DeepEqual(in, got) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, got)
	}
}

// TestMCResultDecodesOldArtifacts decodes an mc/<pos> artifact as
// older builds wrote it, through a DTO that carried the fit error as
// a string and a per-endpoint violation count, with today's codec:
// gob matches fields by name, so the blob decodes to the same
// *mc.Result and the count is skipped.
func TestMCResultDecodesOldArtifacts(t *testing.T) {
	type stageDistDTO struct {
		Stage     netlist.Stage
		SlackPS   []float64
		Fit       stats.Normal
		GOF       stats.GOFResult
		KS        stats.GOFResult
		FitErr    string
		ViolFrac  float64
		ViolProb  float64
		Endpoints int
	}
	type mcResultDTO struct {
		Pos                variation.Pos
		ClockPS            float64
		Samples            int
		Requested          int
		Skipped            []int
		PerStage           map[netlist.Stage]stageDistDTO
		CritPS             []float64
		EndpointViolations map[int]int
		StageCriticals     map[netlist.Stage]map[int]int
	}
	want := mcResult()
	old := mcResultDTO{
		Pos:                want.Pos,
		ClockPS:            want.ClockPS,
		Samples:            want.Samples,
		Requested:          want.Requested,
		Skipped:            want.Skipped,
		PerStage:           make(map[netlist.Stage]stageDistDTO),
		CritPS:             want.CritPS,
		EndpointViolations: map[int]int{7: 3, 9: 1},
		StageCriticals:     want.StageCriticals,
	}
	for st, d := range want.PerStage {
		old.PerStage[st] = stageDistDTO{
			Stage: d.Stage, SlackPS: d.SlackPS, Fit: d.Fit, GOF: d.GOF, KS: d.KS, FitErr: d.FitErr,
			ViolFrac: d.ViolFrac, ViolProb: d.ViolProb, Endpoints: d.Endpoints,
		}
	}
	blob, err := gobBytes(old)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DiskCodecs()("mc/A").Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("old artifact decoded to %+v, want %+v", got, want)
	}
}

func TestPowerReportRoundTrip(t *testing.T) {
	in := &power.Report{
		FreqMHz:   450,
		DynamicMW: 12.5,
		LeakMW:    3.25,
		ByUnit: []power.UnitPower{
			{Unit: "alu", DynamicMW: 6, LeakMW: 1},
			{Unit: "regfile", DynamicMW: 4, LeakMW: 0.5},
		},
		ShifterDynMW:  0.25,
		ShifterLeakMW: 0.05,
		ByDomain: [2]power.UnitPower{
			{Unit: "low", DynamicMW: 5, LeakMW: 1.5},
			{Unit: "high", DynamicMW: 7.5, LeakMW: 1.75},
		},
		CellLeakNW: []float64{1.5, 2.5, 3.5},
	}
	got := roundTrip(t, "power/chipwide/B", in).(*power.Report)
	if !reflect.DeepEqual(in, got) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, got)
	}
}

func TestLadderRoundTrip(t *testing.T) {
	in := []variation.Pos{{Name: "C", XMM: 3, YMM: 3}, {Name: "B", XMM: 2, YMM: 2}, {Name: "A", XMM: 1, YMM: 1}}
	got := roundTrip(t, NodeLadder, in).([]variation.Pos)
	if !reflect.DeepEqual(in, got) {
		t.Fatalf("round trip mismatch: in=%v out=%v", in, got)
	}
}

func TestDRCReportRoundTrip(t *testing.T) {
	in := &drc.Report{
		Violations: []drc.Violation{{Rule: "placement", Msg: "cell off grid"}},
		Truncated:  2,
	}
	got := roundTrip(t, NodeDRC, in).(*drc.Report)
	if !reflect.DeepEqual(in, got) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, got)
	}
}

func TestCodecRejectsWrongType(t *testing.T) {
	c := DiskCodecs()("mc/A")
	if _, err := c.Encode(&power.Report{}); err == nil {
		t.Fatal("mc codec encoded a power report")
	}
	if _, err := c.Decode([]byte("not gob")); err == nil {
		t.Fatal("mc codec decoded garbage")
	}
}

func TestShardStatRoundTrip(t *testing.T) {
	in := &yield.ShardStat{
		Key: "abcd1234", Pos: "r2c3", Shards: 2, Samples: 500,
		Crit: yield.Moments{
			Count: 500,
			Sum:   yield.FixedFromFloat(2_000_000.5),
			SumSq: yield.FixedFromFloat(8_000_000_000.25),
			Min:   3901.5, Max: 4410.25,
		},
		Hist:       yield.Histogram{LoPS: 3600, HiPS: 4600, Bins: []int64{3, 0, 490, 5}, Over: 2},
		HasOverlay: true,
		OvCrit:     yield.Moments{Count: 500, Sum: yield.FixedFromFloat(-12.5), Min: -1, Max: 2},
		OvHist:     yield.Histogram{LoPS: 3600, HiPS: 4600, Bins: []int64{1, 1, 497, 1}},
	}
	got := roundTrip(t, NodeFieldShard("r2c3", "abcd1234", 1), in).(*yield.ShardStat)
	if !reflect.DeepEqual(in, got) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, got)
	}
}

func TestSurfaceRoundTrip(t *testing.T) {
	in := &yield.Surface{
		PlanHash: "deadbeef01234567", ClockPS: 4100, NX: 2, NY: 1,
		PeriodsPS: []float64{3690, 4715},
		Positions: []yield.SurfacePos{
			{Name: "r0c0", Key: "k0", Samples: 1000, Shards: 4,
				MeanPS: 4100.5, StdPS: 55.25, MinPS: 3900, MaxPS: 4400,
				Yields: []float64{0.25, 1}},
			{Name: "r0c1", XMM: 14, Key: "k1", Samples: 1000, Shards: 4,
				MeanPS: 4050, StdPS: 50, MinPS: 3880, MaxPS: 4300,
				Yields:     []float64{0.5, 1},
				HasOverlay: true, OvMeanPS: 4200, OvStdPS: 60, OvMinPS: 3950, OvMaxPS: 4500,
				OvYields: []float64{0.125, 1}},
		},
	}
	got := roundTrip(t, NodeFieldSurface("deadbeef01234567"), in).(*yield.Surface)
	if !reflect.DeepEqual(in, got) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, got)
	}
	// The surface prefix must not be shadowed by the shard codec.
	if _, err := DiskCodecs()(NodeFieldSurface("x")).Encode(&yield.ShardStat{}); err == nil {
		t.Fatal("surface codec accepted a shard stat")
	}
}
