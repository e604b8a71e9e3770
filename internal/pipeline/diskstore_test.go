package pipeline_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"vipipe/internal/faultinject"
	"vipipe/internal/flowerr"
	"vipipe/internal/pipeline"
	"vipipe/internal/pipeline/storetest"
)

// fastOpts keeps fault tests quick: no retries, tiny backoff, a low
// degradation threshold with a short probe period.
func fastOpts(fs pipeline.FS) []pipeline.DiskOption {
	return []pipeline.DiskOption{
		pipeline.WithFS(fs),
		pipeline.WithRetries(0, time.Millisecond),
		pipeline.WithIOTimeout(time.Second),
		pipeline.WithFailThreshold(2, 3),
	}
}

func mustOpen(t *testing.T, dir string, opts ...pipeline.DiskOption) *pipeline.DiskStore {
	t.Helper()
	ds, err := pipeline.OpenDiskStore(dir, storetest.Codecs(), opts...)
	if err != nil {
		t.Fatalf("OpenDiskStore: %v", err)
	}
	return ds
}

func TestDiskStorePutGet(t *testing.T) {
	ds := mustOpen(t, t.TempDir())
	ctx := context.Background()
	if _, _, ok := ds.Get(ctx, "cfg/alpha"); ok {
		t.Fatal("Get on an empty store reported a hit")
	}
	if !ds.Put(ctx, "cfg/alpha", &storetest.Value{Key: "cfg/alpha", N: 5}) {
		t.Fatal("Put failed on a healthy store")
	}
	v, size, ok := ds.Get(ctx, "cfg/alpha")
	if !ok {
		t.Fatal("Get missed a just-written artifact")
	}
	if size <= 0 {
		t.Fatalf("Get reported size %d, want > 0", size)
	}
	if val := v.(*storetest.Value); val.N != 5 {
		t.Fatalf("Get returned %+v, want N=5", val)
	}
	st := ds.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 {
		t.Fatalf("stats %+v, want 1 hit, 1 miss, 1 write", st)
	}
}

// TestDiskStoreCorruptionQuarantine flips bytes in a stored artifact
// and proves the store never serves it: the read reports a miss, the
// bad file moves to quarantine, and the recompute repairs the entry.
func TestDiskStoreCorruptionQuarantine(t *testing.T) {
	dir := t.TempDir()
	ds := mustOpen(t, dir)
	ctx := context.Background()
	ds.Put(ctx, "cfg/mc/A", &storetest.Value{Key: "cfg/mc/A", N: 9})

	path := filepath.Join(dir, "objects", "cfg", "mc", "A.art")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read artifact file: %v", err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("corrupt artifact file: %v", err)
	}

	if _, _, ok := ds.Get(ctx, "cfg/mc/A"); ok {
		t.Fatal("Get served a corrupted artifact")
	}
	if st := ds.Stats(); st.Quarantined != 1 {
		t.Fatalf("stats %+v, want 1 quarantined", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", "cfg_mc_A.art")); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt file still at %s (err %v), want it moved aside", path, err)
	}

	// A tiered Do transparently falls back to recompute and repairs
	// the entry.
	computed := false
	v, err := pipeline.NewTiered(pipeline.NewMemStore(), ds).Do(ctx, "cfg/mc/A", func() (any, int64, error) {
		computed = true
		return &storetest.Value{Key: "cfg/mc/A", N: 10}, 64, nil
	})
	if err != nil || !computed {
		t.Fatalf("Do after corruption: err=%v computed=%v", err, computed)
	}
	if v.(*storetest.Value).N != 10 {
		t.Fatalf("Do returned %+v, want the recomputed artifact", v)
	}
	if _, _, ok := ds.Get(ctx, "cfg/mc/A"); !ok {
		t.Fatal("recompute did not repair the on-disk artifact")
	}
}

// TestDiskStoreTornWrite forces a write that persists only half its
// bytes yet reports success — the frame's length/checksum must catch
// it on read.
func TestDiskStoreTornWrite(t *testing.T) {
	fs := faultinject.NewStoreFS(nil)
	ds := mustOpen(t, t.TempDir(), fastOpts(fs)...)
	ctx := context.Background()

	fs.TearWrites(1)
	if !ds.Put(ctx, "cfg/torn", &storetest.Value{Key: "cfg/torn", N: 1}) {
		t.Fatal("torn Put should report success — the tear is silent")
	}
	if _, _, ok := ds.Get(ctx, "cfg/torn"); ok {
		t.Fatal("Get served a torn artifact")
	}
	if st := ds.Stats(); st.Quarantined != 1 {
		t.Fatalf("stats %+v, want the torn file quarantined", st)
	}
}

// TestDiskStoreDegradedRecovery drives the store into degraded mode
// with an EIO streak, shows IO short-circuits, then heals the disk
// and shows a probe restores service.
func TestDiskStoreDegradedRecovery(t *testing.T) {
	fs := faultinject.NewStoreFS(nil)
	ds := mustOpen(t, t.TempDir(), fastOpts(fs)...)
	ctx := context.Background()
	ds.Put(ctx, "cfg/x", &storetest.Value{Key: "cfg/x", N: 1})

	fs.FailReads(1000, syscall.EIO)
	for i := 0; i < 2; i++ {
		if _, _, ok := ds.Get(ctx, "cfg/x"); ok {
			t.Fatal("Get succeeded through an EIO disk")
		}
	}
	if !ds.Degraded() {
		t.Fatal("store not degraded after hitting the failure threshold")
	}

	before := fs.Reads.Load()
	for i := 0; i < 2; i++ { // below the probe period: must short-circuit
		ds.Get(ctx, "cfg/x")
	}
	if got := fs.Reads.Load(); got != before {
		t.Fatalf("degraded store still issued %d reads", got-before)
	}

	fs.FailReads(0, nil)
	var recovered bool
	for i := 0; i < 20 && !recovered; i++ { // every 3rd op probes
		_, _, recovered = ds.Get(ctx, "cfg/x")
	}
	if !recovered {
		t.Fatal("store never probed its way out of degraded mode")
	}
	if ds.Degraded() {
		t.Fatal("store still reports degraded after a successful probe")
	}
	if st := ds.Stats(); st.DegradedSkips == 0 {
		t.Fatalf("stats %+v, want degraded skips counted", st)
	}
}

// TestDiskStoreENOSPC: a full disk fails writes, but a tiered Do still
// returns computed values — persistence is best-effort.
func TestDiskStoreENOSPC(t *testing.T) {
	fs := faultinject.NewStoreFS(nil)
	ds := mustOpen(t, t.TempDir(), fastOpts(fs)...)
	ctx := context.Background()

	fs.FailWrites(1000, syscall.ENOSPC)
	v, err := pipeline.NewTiered(pipeline.NewMemStore(), ds).Do(ctx, "cfg/full", func() (any, int64, error) {
		return &storetest.Value{Key: "cfg/full", N: 4}, 64, nil
	})
	if err != nil {
		t.Fatalf("Do with a full disk: %v", err)
	}
	if v.(*storetest.Value).N != 4 {
		t.Fatalf("Do returned %+v, want the computed value", v)
	}
	if st := ds.Stats(); st.WriteErrors == 0 {
		t.Fatalf("stats %+v, want write errors counted", st)
	}
}

// TestDiskStoreSlowDisk: an IO attempt slower than the per-op timeout
// is abandoned and counted as a failure, not waited on forever.
func TestDiskStoreSlowDisk(t *testing.T) {
	fs := faultinject.NewStoreFS(nil)
	ds := mustOpen(t, t.TempDir(),
		pipeline.WithFS(fs),
		pipeline.WithRetries(0, time.Millisecond),
		pipeline.WithIOTimeout(10*time.Millisecond),
		pipeline.WithFailThreshold(2, 3),
	)
	ctx := context.Background()
	ds.Put(ctx, "cfg/slow", &storetest.Value{Key: "cfg/slow", N: 2})

	fs.SetDelay(300 * time.Millisecond)
	if _, _, ok := ds.Get(ctx, "cfg/slow"); ok {
		t.Fatal("Get succeeded against a disk slower than its timeout")
	}
	if st := ds.Stats(); st.ReadErrors == 0 {
		t.Fatalf("stats %+v, want the timed-out read counted as an error", st)
	}
}

// TestOpenDiskStoreUnusableDir: an uncreatable store dir yields a
// pre-degraded store plus a typed error; a tiered store over it still
// serves via compute.
func TestOpenDiskStoreUnusableDir(t *testing.T) {
	base := t.TempDir()
	file := filepath.Join(base, "occupied")
	if err := os.WriteFile(file, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := pipeline.OpenDiskStore(filepath.Join(file, "store"), storetest.Codecs())
	if err == nil {
		t.Fatal("OpenDiskStore under a regular file succeeded")
	}
	if !errors.Is(err, flowerr.ErrBadInput) {
		t.Fatalf("open error %v, want flowerr.ErrBadInput", err)
	}
	if ds == nil || !ds.Degraded() {
		t.Fatal("unusable dir must still return a degraded store")
	}
	v, derr := pipeline.NewTiered(pipeline.NewMemStore(), ds).Do(context.Background(), "cfg/k", func() (any, int64, error) {
		return &storetest.Value{Key: "cfg/k", N: 3}, 64, nil
	})
	if derr != nil || v.(*storetest.Value).N != 3 {
		t.Fatalf("degraded store Do: v=%v err=%v, want compute passthrough", v, derr)
	}
}

// TestDiskStoreUnsafeKeys: keys that could escape the store tree are
// refused (no file IO), but a tiered Do still serves them via compute.
func TestDiskStoreUnsafeKeys(t *testing.T) {
	dir := t.TempDir()
	ds := mustOpen(t, dir)
	tiered := pipeline.NewTiered(pipeline.NewMemStore(), ds)
	ctx := context.Background()
	for _, key := range []string{"../../etc/passwd", "a/../b", "a//b"} {
		if ds.Put(ctx, key, &storetest.Value{Key: key, N: 1}) {
			t.Errorf("Put(%q) persisted an unsafe key", key)
		}
		if _, _, ok := ds.Get(ctx, key); ok {
			t.Errorf("Get(%q) hit on an unsafe key", key)
		}
		v, err := tiered.Do(ctx, key, func() (any, int64, error) {
			return &storetest.Value{Key: key, N: 2}, 64, nil
		})
		if err != nil || v.(*storetest.Value).N != 2 {
			t.Errorf("Do(%q): v=%v err=%v, want compute passthrough", key, v, err)
		}
	}
	if entries, err := os.ReadDir(filepath.Join(dir, "objects")); err != nil || len(entries) != 0 {
		t.Fatalf("objects dir entries=%v err=%v, want none for unsafe keys", entries, err)
	}
}

// TestDiskStoreNilCodec: nodes without a codec never touch the disk.
func TestDiskStoreNilCodec(t *testing.T) {
	fs := faultinject.NewStoreFS(nil)
	codecs := func(nodeID string) pipeline.Codec {
		return nil // nothing persists
	}
	ds, err := pipeline.OpenDiskStore(t.TempDir(), codecs, pipeline.WithFS(fs))
	if err != nil {
		t.Fatalf("OpenDiskStore: %v", err)
	}
	ctx := context.Background()
	baseReads, baseWrites := fs.Reads.Load(), fs.Writes.Load()
	if ds.Put(ctx, "cfg/live", &storetest.Value{}) {
		t.Fatal("Put persisted a codec-less artifact")
	}
	if _, _, ok := ds.Get(ctx, "cfg/live"); ok {
		t.Fatal("Get hit a codec-less artifact")
	}
	if fs.Reads.Load() != baseReads || fs.Writes.Load() != baseWrites {
		t.Fatal("codec-less operations reached the filesystem")
	}
}
