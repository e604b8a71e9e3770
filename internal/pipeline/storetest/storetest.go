// Package storetest is the conformance suite for pipeline.Store
// implementations. Every store the flow composes — pipeline.MemStore,
// unbounded or bounded (the daemon's cache), and pipeline.Tiered over
// a DiskStore — must pass Run under -race: same singleflight
// guarantees, same failure semantics, same cancellation behavior, so
// graphs can run over any of them interchangeably.
package storetest

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vipipe/internal/flowerr"
	"vipipe/internal/pipeline"
)

// Value is the artifact type the suite stores: pure data, so every
// tier — including a disk tier round-tripping through Codec — can
// hold it.
type Value struct {
	Key string
	N   int
}

type codec struct{}

func (codec) Encode(v any) ([]byte, error) {
	val, ok := v.(*Value)
	if !ok {
		return nil, flowerr.BadInputf("storetest codec: got %T, want *Value", v)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(val); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (codec) Decode(data []byte) (any, error) {
	v := new(Value)
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		return nil, err
	}
	return v, nil
}

// Codecs returns a pipeline.Codecs serving the suite's Value codec
// for every node, so Tiered stores over a DiskStore can join the
// suite.
func Codecs() pipeline.Codecs {
	return func(string) pipeline.Codec { return codec{} }
}

// Run exercises the Store contract against fresh stores built by mk.
// Each subtest gets its own store; mk may register cleanup on t.
func Run(t *testing.T, mk func(t *testing.T) pipeline.Store) {
	t.Run("compute_once", func(t *testing.T) { computeOnce(t, mk(t)) })
	t.Run("failed_compute_not_cached", func(t *testing.T) { failedCompute(t, mk(t)) })
	t.Run("singleflight", func(t *testing.T) { singleflight(t, mk(t)) })
	t.Run("waiter_cancellation", func(t *testing.T) { waiterCancellation(t, mk(t)) })
	t.Run("waiter_retries_after_failure", func(t *testing.T) { waiterRetries(t, mk(t)) })
	t.Run("concurrent_keys", func(t *testing.T) { concurrentKeys(t, mk(t)) })
}

// wantValue reports mismatches with t.Errorf so it is safe from any
// goroutine (Fatalf may only run on the test goroutine).
func wantValue(t *testing.T, got any, key string, n int) {
	t.Helper()
	v, ok := got.(*Value)
	if !ok || v == nil {
		t.Errorf("store returned %T %v, want *Value", got, got)
		return
	}
	if v.Key != key || v.N != n {
		t.Errorf("store returned %+v, want {Key:%s N:%d}", v, key, n)
	}
}

// computeOnce: a second Do of the same key returns the stored
// artifact without recomputing.
func computeOnce(t *testing.T, s pipeline.Store) {
	ctx := context.Background()
	var computes atomic.Int64
	compute := func() (any, int64, error) {
		computes.Add(1)
		return &Value{Key: "cfg/alpha", N: 11}, 64, nil
	}
	v, err := s.Do(ctx, "cfg/alpha", compute)
	if err != nil {
		t.Fatalf("first Do: %v", err)
	}
	wantValue(t, v, "cfg/alpha", 11)
	v, err = s.Do(ctx, "cfg/alpha", compute)
	if err != nil {
		t.Fatalf("second Do: %v", err)
	}
	wantValue(t, v, "cfg/alpha", 11)
	if n := computes.Load(); n != 1 {
		t.Fatalf("computed %d times, want 1", n)
	}
}

// failedCompute: an error result must not poison the key — the next
// caller recomputes and can succeed.
func failedCompute(t *testing.T, s pipeline.Store) {
	ctx := context.Background()
	boom := errors.New("compute exploded")
	if _, err := s.Do(ctx, "cfg/flaky", func() (any, int64, error) {
		return nil, 0, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("failing Do returned %v, want the compute's error", err)
	}
	v, err := s.Do(ctx, "cfg/flaky", func() (any, int64, error) {
		return &Value{Key: "cfg/flaky", N: 2}, 64, nil
	})
	if err != nil {
		t.Fatalf("Do after failure: %v", err)
	}
	wantValue(t, v, "cfg/flaky", 2)
}

// singleflight: concurrent callers of one missing key share a single
// compute.
func singleflight(t *testing.T, s pipeline.Store) {
	release := make(chan struct{})
	var computes atomic.Int64
	const callers = 8
	results := make([]any, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Do(context.Background(), "cfg/shared", func() (any, int64, error) {
				computes.Add(1)
				<-release
				return &Value{Key: "cfg/shared", N: 7}, 64, nil
			})
		}(i)
	}
	for computes.Load() == 0 {
		runtime.Gosched() // wait for the elected caller to enter compute
	}
	close(release)
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		wantValue(t, results[i], "cfg/shared", 7)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("computed %d times across %d concurrent callers, want 1", n, callers)
	}
}

// waiterCancellation: a waiter whose context dies mid-wait returns an
// error matching flowerr.ErrCancelled while the owning compute
// finishes for everyone else.
func waiterCancellation(t *testing.T, s pipeline.Store) {
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, err := s.Do(context.Background(), "cfg/slow", func() (any, int64, error) {
			close(started)
			<-release
			return &Value{Key: "cfg/slow", N: 3}, 64, nil
		})
		if err != nil {
			t.Errorf("owner Do: %v", err)
			return
		}
		wantValue(t, v, "cfg/slow", 3)
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Do(ctx, "cfg/slow", func() (any, int64, error) {
		t.Error("cancelled waiter ran the compute")
		return nil, 0, nil
	}); !errors.Is(err, flowerr.ErrCancelled) {
		t.Fatalf("cancelled waiter returned %v, want flowerr.ErrCancelled", err)
	}
	close(release)
	<-done
}

// waiterRetries: a waiter parked on a compute that fails becomes the
// owner and recomputes, rather than inheriting the failure — one
// cancelled job must not fail every job waiting on the same key.
func waiterRetries(t *testing.T, s pipeline.Store) {
	started := make(chan struct{})
	release := make(chan struct{})
	fail := errors.New("owner cancelled")
	ownerDone := make(chan struct{})
	go func() {
		defer close(ownerDone)
		if _, err := s.Do(context.Background(), "cfg/retry", func() (any, int64, error) {
			close(started)
			<-release
			return nil, 0, fail
		}); !errors.Is(err, fail) {
			t.Errorf("owner Do returned %v, want its own failure", err)
		}
	}()
	<-started

	type result struct {
		v   any
		err error
	}
	waiting := make(chan struct{})
	waiter := make(chan result, 1)
	go func() {
		close(waiting)
		v, err := s.Do(context.Background(), "cfg/retry", func() (any, int64, error) {
			return &Value{Key: "cfg/retry", N: 5}, 64, nil
		})
		waiter <- result{v, err}
	}()
	<-waiting
	// Give the waiter time to park on the owner's compute. A waiter
	// that arrives after the failure computes directly and passes too,
	// so the sleep only decides which path runs, never the verdict.
	time.Sleep(10 * time.Millisecond)
	close(release)
	<-ownerDone
	res := <-waiter
	if res.err != nil {
		t.Fatalf("waiter Do returned %v, want its own recompute", res.err)
	}
	wantValue(t, res.v, "cfg/retry", 5)
}

// concurrentKeys: many goroutines hammering several keys under -race;
// each key computes exactly once and every caller sees its value.
func concurrentKeys(t *testing.T, s pipeline.Store) {
	keys := []string{"cfg/k0", "cfg/k1", "cfg/k2", "cfg/k3"}
	var computes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 5; it++ {
				key := keys[(g+it)%len(keys)]
				n := (g+it)%len(keys) + 100
				v, err := s.Do(context.Background(), key, func() (any, int64, error) {
					computes.Add(1)
					return &Value{Key: key, N: n}, 64, nil
				})
				if err != nil {
					t.Errorf("Do(%s): %v", key, err)
					return
				}
				wantValue(t, v, key, n)
			}
		}(g)
	}
	wg.Wait()
	if n := computes.Load(); n != int64(len(keys)) {
		t.Fatalf("computed %d times for %d keys, want one compute per key", n, len(keys))
	}
}
