package pipeline_test

import (
	"context"

	"testing"

	"vipipe/internal/pipeline"
	"vipipe/internal/pipeline/storetest"
)

// TestMemStoreConformance runs the suite over the unbounded store; the
// bounded one runs it as the daemon's cache in internal/service
// (TestCacheConformance).
func TestMemStoreConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) pipeline.Store {
		return pipeline.NewMemStore()
	})
}

func TestTieredStoreConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) pipeline.Store {
		ds, err := pipeline.OpenDiskStore(t.TempDir(), storetest.Codecs())
		if err != nil {
			t.Fatalf("OpenDiskStore: %v", err)
		}
		return pipeline.NewTiered(pipeline.NewMemStore(), ds)
	})
}

// TestTieredConformanceWithColdMemory re-runs the suite with a front
// tier that forgets between subtests while the disk tier persists —
// the restart scenario — by rebuilding the memory tier on every make.
func TestTieredRestartWarm(t *testing.T) {
	dir := t.TempDir()
	ds, err := pipeline.OpenDiskStore(dir, storetest.Codecs())
	if err != nil {
		t.Fatalf("OpenDiskStore: %v", err)
	}
	tiered := pipeline.NewTiered(pipeline.NewMemStore(), ds)
	computes := 0
	compute := func() (any, int64, error) {
		computes++
		return &storetest.Value{Key: "cfg/warm", N: 1}, 64, nil
	}
	if _, err := tiered.Do(context.Background(), "cfg/warm", compute); err != nil {
		t.Fatalf("first Do: %v", err)
	}

	// "Restart": a brand-new process opens the same dir — fresh memory
	// tier, fresh DiskStore.
	ds2, err := pipeline.OpenDiskStore(dir, storetest.Codecs())
	if err != nil {
		t.Fatalf("reopen DiskStore: %v", err)
	}
	tiered2 := pipeline.NewTiered(pipeline.NewMemStore(), ds2)
	v, err := tiered2.Do(context.Background(), "cfg/warm", compute)
	if err != nil {
		t.Fatalf("Do after restart: %v", err)
	}
	if computes != 1 {
		t.Fatalf("computed %d times, want the restart to hit disk", computes)
	}
	if val, ok := v.(*storetest.Value); !ok || val.Key != "cfg/warm" || val.N != 1 {
		t.Fatalf("restart read %#v, want the persisted artifact", v)
	}
	if st := ds2.Stats(); st.Hits != 1 {
		t.Fatalf("disk stats after restart: %+v, want 1 hit", st)
	}
}
