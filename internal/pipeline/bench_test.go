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

// BenchmarkGraphRequest is the scheduling overhead of one graph
// Request. warm: a node whose artifact is already in the memory
// store, so the call is dependency resolution, one store hit and the
// span. fanin: the shape of a field_edit op — 256 warm leaves, 4 cold
// ones and one cold reduce over all 260 — with trivial computes, so
// the call is the scheduling of 261 nodes, 256 store hits and the
// reduce's 260-entry dependency map.
func BenchmarkGraphRequest(b *testing.B) {
	ctx := context.Background()
	b.Run("warm", func(b *testing.B) {
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
	})
	b.Run("fanin", func(b *testing.B) {
		store := coldStore{warm: pipeline.NewMemStore(), cold: map[string]bool{"bench/reduce": true}}
		g := pipeline.New("bench", store)
		leaves := make([]string, 260)
		for i := range leaves {
			leaves[i] = "leaf/" + strconv.Itoa(i)
			if i >= 256 {
				store.cold["bench/"+leaves[i]] = true
			}
			g.MustAdd(pipeline.Node{ID: leaves[i], Compute: func(context.Context, map[string]any) (any, error) { return i, nil }})
		}
		g.MustAdd(pipeline.Node{ID: "reduce", Deps: leaves, Compute: func(_ context.Context, deps map[string]any) (any, error) {
			return len(deps), nil
		}})
		if _, err := g.RequestOne(ctx, "reduce"); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := g.RequestOne(ctx, "reduce"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// coldStore computes the keys in cold on every call, as re-keyed
// nodes do, and serves the rest from warm.
type coldStore struct {
	warm *pipeline.MemStore
	cold map[string]bool
}

func (s coldStore) Do(ctx context.Context, key string, compute func() (any, int64, error)) (any, error) {
	if s.cold[key] {
		v, _, err := compute()
		return v, err
	}
	return s.warm.Do(ctx, key, compute)
}
