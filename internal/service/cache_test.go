package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vipipe/internal/flowerr"
)

func constEntry(v any, size int64) func() (any, int64, error) {
	return func() (any, int64, error) { return v, size, nil }
}

func TestCacheSingleflight(t *testing.T) {
	c := NewCache(1 << 20)
	var computes atomic.Int64
	release := make(chan struct{})

	const callers = 8
	results := make([]any, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Do(context.Background(), "k", func() (any, int64, error) {
				computes.Add(1)
				<-release
				return "shared", 1, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	// Let the goroutines pile up on the inflight call before releasing.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times for %d concurrent callers; want 1", n, callers)
	}
	for i, v := range results {
		if v != "shared" {
			t.Fatalf("caller %d got %v; want shared value", i, v)
		}
	}
}

func TestCacheFailedComputeNotCached(t *testing.T) {
	c := NewCache(1 << 20)
	ctx := context.Background()
	boom := errors.New("boom")

	if _, err := c.Do(ctx, "k", func() (any, int64, error) { return nil, 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("Do = %v; want boom", err)
	}
	if st := c.Stats(); st.Entries != 0 || st.SizeBytes != 0 {
		t.Fatalf("stats = %+v; failed compute was cached", st)
	}
	// The next caller retries and can succeed.
	v, err := c.Do(ctx, "k", constEntry("ok", 1))
	if err != nil || v != "ok" {
		t.Fatalf("retry Do = %v, %v; want ok", v, err)
	}
}

func TestCacheWaiterHonorsContext(t *testing.T) {
	c := NewCache(1 << 20)
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)

	go c.Do(context.Background(), "k", func() (any, int64, error) {
		close(started)
		<-release
		return "late", 1, nil
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Do(ctx, "k", constEntry("never", 1))
	if !errors.Is(err, flowerr.ErrCancelled) {
		t.Fatalf("cancelled waiter = %v; want ErrCancelled", err)
	}
}

func TestCacheConcurrentDistinctKeys(t *testing.T) {
	c := NewCache(1 << 20)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i%8)
			v, err := c.Do(context.Background(), key, constEntry(key, 16))
			if err != nil || v != key {
				t.Errorf("key %s = %v, %v", key, v, err)
			}
		}(i)
	}
	wg.Wait()
	if st := c.Stats(); st.Entries != 8 {
		t.Fatalf("entries = %d; want 8 distinct keys", st.Entries)
	}
}
