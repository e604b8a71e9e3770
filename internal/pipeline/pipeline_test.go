package pipeline

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

// value node: returns a fixed string derived from its deps.
func constNode(id string, deps ...string) Node {
	return Node{
		ID:   id,
		Deps: deps,
		Compute: func(_ context.Context, in map[string]any) (any, error) {
			out := id
			for _, d := range deps {
				out += "(" + in[d].(string) + ")"
			}
			return out, nil
		},
	}
}

func TestGraphResolvesDependencyClosure(t *testing.T) {
	g := New("t", NewMemStore())
	g.MustAdd(constNode("a"))
	g.MustAdd(constNode("b", "a"))
	g.MustAdd(constNode("c", "a"))
	g.MustAdd(constNode("d", "b", "c"))

	arts, err := g.Request(context.Background(), "d")
	if err != nil {
		t.Fatal(err)
	}
	// The whole closure is materialized, not just the terminal.
	for _, id := range []string{"a", "b", "c", "d"} {
		if _, ok := arts[id]; !ok {
			t.Errorf("closure missing %q", id)
		}
	}
	if got := arts["d"].(string); got != "d(b(a))(c(a))" {
		t.Errorf("d = %q; dependency values did not flow", got)
	}
}

func TestGraphAddValidation(t *testing.T) {
	g := New("t", NewMemStore())
	if err := g.Add(Node{ID: "x"}); !errors.Is(err, flowerr.ErrBadInput) {
		t.Errorf("nil compute: %v", err)
	}
	g.MustAdd(constNode("a"))
	if err := g.Add(constNode("a")); !errors.Is(err, flowerr.ErrBadInput) {
		t.Errorf("duplicate: %v", err)
	}
	if err := g.Add(constNode("b", "missing")); !errors.Is(err, flowerr.ErrBadInput) {
		t.Errorf("unknown dep: %v", err)
	}
	if _, err := g.Request(context.Background(), "nope"); !errors.Is(err, flowerr.ErrBadInput) {
		t.Errorf("unknown request: %v", err)
	}
}

// TestGraphRunsReadyNodesConcurrently proves the scheduler overlaps
// independent nodes: four siblings block until all four are running.
func TestGraphRunsReadyNodesConcurrently(t *testing.T) {
	g := New("t", NewMemStore(), WithWorkers(4))
	g.MustAdd(constNode("root"))
	var started sync.WaitGroup
	started.Add(4)
	release := make(chan struct{})
	terminals := []string{}
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("mc/%d", i)
		terminals = append(terminals, id)
		g.MustAdd(Node{
			ID:   id,
			Deps: []string{"root"},
			Compute: func(ctx context.Context, _ map[string]any) (any, error) {
				started.Done()
				select {
				case <-release:
					return id, nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			},
		})
	}
	go func() {
		started.Wait() // deadlocks the test on a serial scheduler
		close(release)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := g.Request(ctx, terminals...); err != nil {
		t.Fatalf("concurrent fan-out: %v (scheduler did not overlap ready nodes?)", err)
	}
}

// TestGraphWorkerBound asserts the pool limit: with one worker, no
// two computes ever overlap.
func TestGraphWorkerBound(t *testing.T) {
	g := New("t", NewMemStore(), WithWorkers(1))
	var inFlight, maxInFlight atomic.Int64
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("n%d", i)
		g.MustAdd(Node{
			ID: id,
			Compute: func(context.Context, map[string]any) (any, error) {
				cur := inFlight.Add(1)
				for {
					old := maxInFlight.Load()
					if cur <= old || maxInFlight.CompareAndSwap(old, cur) {
						break
					}
				}
				time.Sleep(time.Millisecond)
				inFlight.Add(-1)
				return id, nil
			},
		})
	}
	if _, err := g.Request(context.Background(), g.Nodes()...); err != nil {
		t.Fatal(err)
	}
	if got := maxInFlight.Load(); got != 1 {
		t.Errorf("max concurrent computes = %d; want 1 under WithWorkers(1)", got)
	}
}

func TestGraphFailurePropagatesRootCause(t *testing.T) {
	boom := flowerr.BadInputf("boom")
	g := New("t", NewMemStore())
	g.MustAdd(constNode("ok"))
	g.MustAdd(Node{ID: "bad", Compute: func(context.Context, map[string]any) (any, error) {
		return nil, boom
	}})
	g.MustAdd(constNode("downstream", "bad", "ok"))

	arts, err := g.Request(context.Background(), "downstream")
	if err == nil {
		t.Fatal("failed dependency produced no error")
	}
	if !errors.Is(err, flowerr.ErrBadInput) {
		t.Errorf("error %v lost its flowerr class", err)
	}
	if want := `node "bad"`; !contains(err.Error(), want) {
		t.Errorf("error %q does not name the failing node", err)
	}
	if _, ok := arts["downstream"]; ok {
		t.Error("downstream computed despite failed dependency")
	}
}

func TestGraphPreCancelledContext(t *testing.T) {
	g := New("t", NewMemStore())
	g.MustAdd(constNode("a"))
	g.MustAdd(constNode("b", "a"))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := g.Request(ctx, "b")
	if !errors.Is(err, flowerr.ErrCancelled) {
		t.Fatalf("pre-cancelled request: %v; want ErrCancelled", err)
	}
}

// TestGraphPartialResultsOnFailure: completed siblings stay in the
// result map when another node fails.
func TestGraphPartialResultsOnFailure(t *testing.T) {
	g := New("t", NewMemStore())
	g.MustAdd(constNode("good"))
	gate := make(chan struct{})
	g.MustAdd(Node{ID: "bad", Deps: []string{"good"}, Compute: func(context.Context, map[string]any) (any, error) {
		<-gate // "good" is committed before this runs
		return nil, flowerr.NoScenariof("nothing to do")
	}})
	go close(gate)
	arts, err := g.Request(context.Background(), "bad")
	if !errors.Is(err, flowerr.ErrNoScenario) {
		t.Fatalf("err = %v", err)
	}
	if arts["good"] != "good" {
		t.Errorf("partial results = %v; want the completed dependency", arts)
	}
}

// TestGraphSharedStoreSingleflight: two graphs over one store compute
// each node exactly once, and the second request reports hits.
func TestGraphSharedStoreSingleflight(t *testing.T) {
	store := NewMemStore()
	var computes atomic.Int64
	build := func(hits *atomic.Int64) *Graph {
		g := New("shared", store, WithHook(func(_ string, _ any, cached bool, _ time.Duration) {
			if cached {
				hits.Add(1)
			}
		}))
		g.MustAdd(Node{ID: "a", Compute: func(context.Context, map[string]any) (any, error) {
			computes.Add(1)
			time.Sleep(2 * time.Millisecond)
			return "a", nil
		}})
		g.MustAdd(constNode("b", "a"))
		return g
	}
	var hits1, hits2 atomic.Int64
	g1, g2 := build(&hits1), build(&hits2)

	var wg sync.WaitGroup
	for _, g := range []*Graph{g1, g2} {
		wg.Add(1)
		go func(g *Graph) {
			defer wg.Done()
			if _, err := g.Request(context.Background(), "b"); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Errorf("node a computed %d times across two graphs; want singleflight", got)
	}
	if n := store.Stats().Entries; n != 2 {
		t.Errorf("store holds %d artifacts; want 2", n)
	}
	// A fresh request over the warm store is all hits.
	var hits3 atomic.Int64
	if _, err := build(&hits3).Request(context.Background(), "b"); err != nil {
		t.Fatal(err)
	}
	if hits3.Load() != 2 {
		t.Errorf("warm request hits = %d; want 2", hits3.Load())
	}
}

func TestGraphComputeHookObservesMisses(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]int{}
	g := New("t", NewMemStore(), WithHook(func(id string, _ any, cached bool, d time.Duration) {
		switch {
		case cached && d != 0:
			t.Errorf("cached %s reports compute time %v; want 0", id, d)
		case !cached && d < 0:
			t.Errorf("negative duration for %s", id)
		case !cached:
			mu.Lock()
			seen[id]++
			mu.Unlock()
		}
	}))
	g.MustAdd(constNode("a"))
	g.MustAdd(constNode("b", "a"))
	if _, err := g.Request(context.Background(), "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Request(context.Background(), "b"); err != nil {
		t.Fatal(err)
	}
	if seen["a"] != 1 || seen["b"] != 1 {
		t.Errorf("computes observed %v; want each node once", seen)
	}
}

// TestGraphResolveHookSeesValueAndCacheState: the hook fires for
// every resolved node with the artifact value, cached=false on the
// cold pass and cached=true on the warm one.
func TestGraphResolveHookSeesValueAndCacheState(t *testing.T) {
	var mu sync.Mutex
	type resolved struct {
		v      any
		cached bool
	}
	seen := map[string][]resolved{}
	g := New("t", NewMemStore(), WithHook(func(id string, v any, cached bool, _ time.Duration) {
		mu.Lock()
		seen[id] = append(seen[id], resolved{v, cached})
		mu.Unlock()
	}))
	g.MustAdd(constNode("a"))
	g.MustAdd(constNode("b", "a"))
	for i := 0; i < 2; i++ {
		if _, err := g.Request(context.Background(), "b"); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"a", "b"} {
		got := seen[id]
		if len(got) != 2 || got[0].cached || !got[1].cached {
			t.Fatalf("hook(%s) = %+v; want cold then cached", id, got)
		}
		if got[0].v == nil || got[0].v != got[1].v {
			t.Errorf("hook(%s) values = %+v; want the same artifact both passes", id, got)
		}
	}
}

func TestMemStoreCancelledWaiter(t *testing.T) {
	s := NewMemStore()
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _ = s.Do(context.Background(), "k", func() (any, int64, error) {
			close(started)
			<-release
			return "v", 1, nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.Do(ctx, "k", func() (any, int64, error) { return nil, 0, nil })
	if !errors.Is(err, flowerr.ErrCancelled) {
		t.Fatalf("cancelled waiter: %v; want ErrCancelled", err)
	}
	close(release)
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
