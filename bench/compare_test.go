package main

import (
	"strings"
	"testing"
)

func runsOf(workload string, metric string, vs []float64, digest string) []run {
	var out []run
	for i, v := range vs {
		out = append(out, run{Workload: workload, Seed: int64(i + 1), Correct: true, Attempted: 1,
			Digest: digest, Metrics: map[string]float64{metric: v}})
	}
	return out
}

func TestJudge(t *testing.T) {
	cases := []struct {
		name     string
		metric   string
		old, new []float64
		want     string
	}{
		{
			// Nine of ten pairs won and a median gap far beyond the
			// parent's interquartile range.
			name:   "nine of ten wins is a gain",
			metric: "op_ms_p50",
			old:    []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100},
			new:    []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 101},
			want:   "gain",
		},
		{
			name:   "a small move within the bound is ok",
			metric: "op_ms_p50",
			old:    []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100},
			new:    []float64{102, 103, 101, 102, 104, 100, 99, 103, 101, 102},
			want:   "ok",
		},
		{
			name:   "a spread wider than the bound is unresolved",
			metric: "op_ms_p50",
			old:    []float64{100, 130, 80, 100, 125, 75, 100, 130, 80, 100},
			new:    []float64{105, 135, 85, 105, 120, 70, 110, 125, 85, 100},
			want:   "unresolved",
		},
		{
			name:   "a median worse by more than the bound is a regression",
			metric: "ops_per_s",
			old:    []float64{50, 51, 49, 50, 50, 51, 49, 50, 50, 50},
			new:    []float64{35, 36, 34, 35, 35, 36, 34, 35, 35, 35},
			want:   "REGRESSION",
		},
	}
	for _, c := range cases {
		v := judge("field_edit", c.metric, c.old, c.new)
		if v.outcome != c.want {
			t.Errorf("%s: outcome %s (change %+.3f, wins %d/%d), want %s", c.name, v.outcome, v.change, v.wins, v.pair, c.want)
		}
	}
}

func TestCompareDigestMismatch(t *testing.T) {
	vs := []float64{10, 10, 10}
	old := runsOf("paper_flow", "op_ms_p50", vs, "aaaa")
	new := runsOf("paper_flow", "op_ms_p50", vs, "aaaa")
	new[1].Digest = "bbbb"
	var out strings.Builder
	if code := printCompare(&out, old, new); code == 0 {
		t.Fatalf("compare accepted a digest mismatch:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "paper_flow seed 2: result digest") {
		t.Fatalf("mismatch not reported by workload and seed:\n%s", out.String())
	}
	if code := printCompare(&out, old, old); code != 0 {
		t.Fatalf("compare of a run set with itself failed:\n%s", out.String())
	}
}
