package pipeline_test

import (
	"context"
	"strconv"
	"testing"

	"vipipe/internal/pipeline"
	"vipipe/internal/pipeline/storetest"
)

// BenchmarkStoreDo times Store.Do on each store the flow uses: the
// unbounded memory store of a Flow, the bounded one the daemon caches
// in (at vipiped's default 256 MiB) and memory over disk (Tiered). A
// hit reads one stored key; a miss computes and stores a fresh key,
// which on the tiered store includes the fsynced disk write.
func BenchmarkStoreDo(b *testing.B) {
	ctx := context.Background()
	tiers := []struct {
		name string
		open func(b *testing.B) pipeline.Store
	}{
		{"mem", func(*testing.B) pipeline.Store { return pipeline.NewMemStore() }},
		{"bounded", func(*testing.B) pipeline.Store { return pipeline.NewBoundedMemStore(256 << 20) }},
		{"tiered", func(b *testing.B) pipeline.Store { return pipeline.NewTiered(pipeline.NewMemStore(), openDisk(b)) }},
	}
	compute := func(key string) func() (any, int64, error) {
		return func() (any, int64, error) { return &storetest.Value{Key: key, N: 1}, 64, nil }
	}
	for _, tier := range tiers {
		b.Run(tier.name+"/hit", func(b *testing.B) {
			s := tier.open(b)
			if _, err := s.Do(ctx, "bench/hit", compute("bench/hit")); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Do(ctx, "bench/hit", compute("bench/hit")); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tier.name+"/miss", func(b *testing.B) {
			s := tier.open(b)
			keys := make([]string, b.N)
			for i := range keys {
				keys[i] = "bench/miss" + strconv.Itoa(i)
			}
			b.ResetTimer()
			for _, key := range keys {
				if _, err := s.Do(ctx, key, compute(key)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func openDisk(b *testing.B) *pipeline.DiskStore {
	ds, err := pipeline.OpenDiskStore(b.TempDir(), storetest.Codecs())
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// BenchmarkGraphRequest is the scheduling overhead of one warm graph
// Request: a node whose artifact is already in the memory store, so
// the call is dependency resolution, one store hit and the span.
func BenchmarkGraphRequest(b *testing.B) {
	ctx := context.Background()
	g := pipeline.New("bench", pipeline.NewMemStore())
	g.MustAdd(pipeline.Node{ID: "noop", Compute: func(context.Context, map[string]any) (any, error) { return 1, nil }})
	if _, err := g.RequestOne(ctx, "noop"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.RequestOne(ctx, "noop"); err != nil {
			b.Fatal(err)
		}
	}
}
