package pipeline

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"vipipe/internal/flowerr"
	"vipipe/internal/obs"
)

// TestSingleNodeTraceGolden drives one node through the scheduler
// under a tracer with a frozen clock — every timestamp and duration
// is zero — and golden-compares the exported Chrome trace-event JSON,
// then decodes it back and checks the round trip.
func TestSingleNodeTraceGolden(t *testing.T) {
	g := New("cfg", NewMemStore())
	g.MustAdd(Node{
		ID: "solo",
		Compute: func(ctx context.Context, _ map[string]any) (any, error) {
			return 42, nil
		},
	})

	epoch := time.Unix(0, 0)
	tr := obs.NewTracerWithClock("run-solo", "pipeline-test", func() time.Time { return epoch })
	ctx := obs.WithTracer(context.Background(), tr)
	if _, err := g.RequestOne(ctx, "solo"); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tr.Finish().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	const want = `{
 "traceEvents": [
  {
   "name": "solo",
   "cat": "span",
   "ph": "X",
   "ts": 0,
   "dur": 0,
   "pid": 1,
   "tid": 1,
   "args": {
    "bytes": "1024",
    "cache": "miss",
    "key": "cfg/solo",
    "parent": "0",
    "queue_wait_us": "0",
    "span": "1"
   }
  }
 ],
 "displayTimeUnit": "ms",
 "otherData": {
  "trace_id": "run-solo",
  "trace_name": "pipeline-test"
 }
}
`
	if got := buf.String(); got != want {
		t.Errorf("single-node trace mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	f, err := obs.ParseChrome(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.TraceEvents) != 1 {
		t.Fatalf("round trip decoded %d events, want 1", len(f.TraceEvents))
	}
	ev := f.TraceEvents[0]
	if ev.Name != "solo" || ev.Ph != "X" || ev.Args["cache"] != "miss" || ev.Args["key"] != "cfg/solo" {
		t.Errorf("round-trip event = %+v", ev)
	}
}

// TestNodeSpansRecordHitAndMiss verifies the per-node span attributes
// the acceptance criterion names: cache hit/miss and queue-wait.
func TestNodeSpansRecordHitAndMiss(t *testing.T) {
	g := New("cfg", NewMemStore())
	g.MustAdd(Node{ID: "a", Compute: func(context.Context, map[string]any) (any, error) { return 1, nil }})
	g.MustAdd(Node{ID: "b", Deps: []string{"a"}, Compute: func(_ context.Context, deps map[string]any) (any, error) {
		return deps["a"].(int) + 1, nil
	}})

	tr := obs.NewTracer("run", "hitmiss")
	ctx := obs.WithTracer(context.Background(), tr)
	if _, err := g.Request(ctx, "b"); err != nil {
		t.Fatal(err)
	}
	// Second request: both artifacts come out of the store.
	if _, err := g.Request(ctx, "b"); err != nil {
		t.Fatal(err)
	}

	counts := map[string]int{}
	for _, s := range tr.Finish().Spans {
		var cache, queue bool
		for _, a := range s.Attrs {
			if a.Key == "cache" {
				cache = true
				counts[s.Name+"/"+a.Value]++
			}
			if a.Key == "queue_wait_us" {
				queue = true
			}
		}
		if !cache || !queue {
			t.Errorf("span %s missing cache/queue_wait attrs: %+v", s.Name, s.Attrs)
		}
	}
	for _, want := range []string{"a/miss", "b/miss", "a/hit", "b/hit"} {
		if counts[want] != 1 {
			t.Errorf("cache attr %s seen %d times, want 1 (all: %v)", want, counts[want], counts)
		}
	}
}

// TestFailedDependencyOpensNoSpan: only the node that failed opens a
// span (carrying its error class); the nodes downstream of it settle
// with its error and open none.
func TestFailedDependencyOpensNoSpan(t *testing.T) {
	g := New("cfg", NewMemStore())
	g.MustAdd(Node{ID: "bad", Compute: func(context.Context, map[string]any) (any, error) {
		return nil, flowerr.NoScenariof("nothing violates")
	}})
	g.MustAdd(Node{ID: "mid", Deps: []string{"bad"}, Compute: func(context.Context, map[string]any) (any, error) { return 1, nil }})
	g.MustAdd(Node{ID: "top", Deps: []string{"mid", "bad"}, Compute: func(context.Context, map[string]any) (any, error) { return 2, nil }})

	tr := obs.NewTracer("run", "depfail")
	if _, err := g.Request(obs.WithTracer(context.Background(), tr), "top"); !errors.Is(err, flowerr.ErrNoScenario) {
		t.Fatalf("err = %v; want the dependency's ErrNoScenario", err)
	}
	spans := tr.Finish().Spans
	if len(spans) != 1 || spans[0].Name != "bad" {
		t.Fatalf("spans %+v; want only the failing node's", spans)
	}
	class := ""
	for _, a := range spans[0].Attrs {
		if a.Key == "error" {
			class = a.Value
		}
	}
	if class != "no-scenario" {
		t.Errorf("bad's span error = %q; want no-scenario", class)
	}
}

// TestTracedRunMatchesUntraced pins the zero-interference guarantee
// at the scheduler level: the same graph computes identical artifacts
// with and without a tracer on the context.
func TestTracedRunMatchesUntraced(t *testing.T) {
	build := func() *Graph {
		g := New("cfg", NewMemStore())
		g.MustAdd(Node{ID: "x", Compute: func(context.Context, map[string]any) (any, error) { return []int{1, 2, 3}, nil }})
		g.MustAdd(Node{ID: "y", Deps: []string{"x"}, Compute: func(_ context.Context, deps map[string]any) (any, error) {
			sum := 0
			for _, v := range deps["x"].([]int) {
				sum += v
			}
			return sum, nil
		}})
		return g
	}
	plain, err := build().RequestOne(context.Background(), "y")
	if err != nil {
		t.Fatal(err)
	}
	ctx := obs.WithTracer(context.Background(), obs.NewTracer("t", "traced"))
	traced, err := build().RequestOne(ctx, "y")
	if err != nil {
		t.Fatal(err)
	}
	if plain != traced {
		t.Fatalf("traced run computed %v, untraced %v", traced, plain)
	}
}
