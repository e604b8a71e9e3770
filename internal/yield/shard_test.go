package yield

import (
	"context"
	"runtime/debug"
	"testing"

	"vipipe/internal/cell"
	"vipipe/internal/place"
	"vipipe/internal/sta"
	"vipipe/internal/variation"
	"vipipe/internal/vex"
)

// smallShard returns a shard input over the small core at position B,
// with count samples and no overlay or derate.
func smallShard(tb testing.TB, count int) ShardInput {
	tb.Helper()
	core, err := vex.Build(vex.SmallConfig(), cell.Default65nm())
	if err != nil {
		tb.Fatal(err)
	}
	pl, err := place.Global(core.NL, place.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	a, err := sta.New(core.NL, pl)
	if err != nil {
		tb.Fatal(err)
	}
	model := variation.Default()
	pos, _ := model.Position("B")
	clock := a.Run(1e9, nil).CritPS * 1.001
	return ShardInput{
		Kernel:  sta.NewKernel(a),
		PL:      pl,
		Model:   &model,
		Tech:    &core.NL.Lib.Tech,
		Pos:     pos,
		Key:     "bench",
		Count:   count,
		Seed:    11,
		ClockPS: clock,
		Axis:    CurveAxis{}.Resolve(clock),
	}
}

// TestComputeShardNoPerSampleAllocs pins that a shard's heap use does
// not grow with its sample count — on the base pass and on the
// overlay's gathered dirty cells, with a derate — so a long shard
// costs no more memory than a short one.
func TestComputeShardNoPerSampleAllocs(t *testing.T) {
	// Count with the collector off: the malloc count covers the whole
	// process, and a GC cycle inside the measured window allocates on
	// its own, so the count would follow GC timing, not samples.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	in := smallShard(t, 0)
	in.Derate = make([]float64, in.Kernel.NumCells())
	for i := range in.Derate {
		in.Derate[i] = 0.95 + 0.1*float64(i%7)/7
	}
	overlay := in
	overlay.Overlay = &PosOverlay{XMM: in.PL.DieW / 2000, YMM: in.PL.DieH / 2000, RMM: in.PL.DieW / 8000, DeltaFrac: 0.05}
	for name, base := range map[string]ShardInput{"plain": in, "overlay": overlay} {
		allocs := func(count int) float64 {
			in := base
			in.Count = count
			return testing.AllocsPerRun(3, func() {
				st, err := ComputeShard(context.Background(), in)
				if err != nil {
					t.Fatal(err)
				}
				if st.HasOverlay && st.OvCrit == st.Crit {
					t.Fatal("overlay disc perturbed no cell")
				}
			})
		}
		if a8, a16 := allocs(8), allocs(16); a16 != a8 {
			t.Errorf("%s shard: %v allocations at 16 samples, %v at 8", name, a16, a8)
		}
	}
}

// BenchmarkComputeShard is the per-sample cost of a yield shard on the
// small core at position B: chip draw, brackets, Bound and Crit's
// refine, with the shard's fixed part amortized over b.N samples.
func BenchmarkComputeShard(b *testing.B) {
	in := smallShard(b, b.N)
	b.ResetTimer()
	if _, err := ComputeShard(context.Background(), in); err != nil {
		b.Fatal(err)
	}
}
