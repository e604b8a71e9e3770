package yield

import (
	"context"
	"testing"

	"vipipe/internal/cell"
	"vipipe/internal/place"
	"vipipe/internal/sta"
	"vipipe/internal/variation"
	"vipipe/internal/vex"
)

// BenchmarkComputeShard is the per-sample cost of a yield shard on the
// small core at position B: chip draw, delay scaling and a kernel run,
// with the shard's fixed part amortized over b.N samples.
func BenchmarkComputeShard(b *testing.B) {
	core, err := vex.Build(vex.SmallConfig(), cell.Default65nm())
	if err != nil {
		b.Fatal(err)
	}
	pl, err := place.Global(core.NL, place.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	a, err := sta.New(core.NL, pl)
	if err != nil {
		b.Fatal(err)
	}
	model := variation.Default()
	pos, _ := model.Position("B")
	clock := a.Run(1e9, nil).CritPS * 1.001
	in := ShardInput{
		Kernel:  sta.NewKernel(a),
		PL:      pl,
		Model:   &model,
		Tech:    &core.NL.Lib.Tech,
		Pos:     pos,
		Key:     "bench",
		Count:   b.N,
		Seed:    11,
		ClockPS: clock,
		Axis:    CurveAxis{}.Resolve(clock),
	}
	b.ResetTimer()
	if _, err := ComputeShard(context.Background(), in); err != nil {
		b.Fatal(err)
	}
}
