package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fixedClock returns the same instant forever: every span starts at
// 0µs and lasts 0µs, which is what golden tests want.
func fixedClock() func() time.Time {
	epoch := time.Unix(0, 0)
	return func() time.Time { return epoch }
}

// stepClock advances 1ms per read, making span ordering and durations
// deterministic without a wall clock.
func stepClock() func() time.Time {
	epoch := time.Unix(0, 0)
	n := 0
	return func() time.Time {
		n++
		return epoch.Add(time.Duration(n) * time.Millisecond)
	}
}

func TestStartWithoutTracerIsNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, span := Start(ctx, "anything")
	if span != nil {
		t.Fatalf("Start without tracer returned a live span")
	}
	if ctx2 != ctx {
		t.Fatalf("Start without tracer changed the context")
	}
	// Every method must be nil-safe.
	span.SetAttr("k", "v")
	span.Lap("lap_us")
	span.End()
}

func TestSpanNesting(t *testing.T) {
	tr := NewTracerWithClock("t1", "test", stepClock())
	ctx := WithTracer(context.Background(), tr)
	ctx, root := Start(ctx, "root")
	ctx2, child := Start(ctx, "child")
	_, grand := Start(ctx2, "grand")
	grand.End()
	child.End()
	root.SetAttr("answer", 42)
	root.End()

	trace := tr.Finish()
	if len(trace.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(trace.Spans))
	}
	byName := map[string]SpanData{}
	for _, s := range trace.Spans {
		byName[s.Name] = s
	}
	if byName["root"].Parent != 0 {
		t.Errorf("root parent = %d, want 0", byName["root"].Parent)
	}
	if byName["child"].Parent != byName["root"].ID {
		t.Errorf("child parent = %d, want root %d", byName["child"].Parent, byName["root"].ID)
	}
	if byName["grand"].Parent != byName["child"].ID {
		t.Errorf("grand parent = %d, want child %d", byName["grand"].Parent, byName["child"].ID)
	}
	if got := byName["root"].Attrs; len(got) != 1 || got[0] != (Attr{Key: "answer", Value: "42"}) {
		t.Errorf("root attrs = %v", got)
	}
	if byName["grand"].DurUS <= 0 {
		t.Errorf("grand duration = %dµs, want > 0", byName["grand"].DurUS)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr := NewTracerWithClock("t", "test", stepClock())
	ctx := WithTracer(context.Background(), tr)
	_, s := Start(ctx, "once")
	s.End()
	s.End()
	if n := len(tr.Finish().Spans); n != 1 {
		t.Fatalf("double End recorded %d spans, want 1", n)
	}
}

func TestLapRecordsElapsedSegments(t *testing.T) {
	tr := NewTracerWithClock("t", "test", stepClock())
	ctx := WithTracer(context.Background(), tr)
	_, s := Start(ctx, "segmented")
	s.Lap("first_us")
	s.Lap("second_us")
	s.End()
	spans := tr.Finish().Spans
	if len(spans[0].Attrs) != 2 {
		t.Fatalf("attrs = %v, want 2 laps", spans[0].Attrs)
	}
	for _, a := range spans[0].Attrs {
		if a.Value != "1000" { // stepClock advances 1ms per read
			t.Errorf("lap %s = %sµs, want 1000", a.Key, a.Value)
		}
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	tr := NewTracer("t", "race")
	ctx := WithTracer(context.Background(), tr)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				_, s := Start(ctx, fmt.Sprintf("w%d", i))
				s.SetAttr("j", j)
				s.Lap("lap_us")
				s.End()
			}
		}(i)
	}
	wg.Wait()
	if n := len(tr.Finish().Spans); n != 16*50 {
		t.Fatalf("got %d spans, want %d", n, 16*50)
	}
}

func TestRecorderRingEviction(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 3; i++ {
		r.Add(&Trace{ID: fmt.Sprintf("job-%d", i), Name: "t"})
	}
	if _, ok := r.Get("job-0"); ok {
		t.Error("oldest trace survived past the ring bound")
	}
	if _, ok := r.Get("job-2"); !ok {
		t.Error("newest trace missing")
	}
	list := r.List()
	if len(list) != 2 || list[0].ID != "job-2" || list[1].ID != "job-1" {
		t.Errorf("List = %+v, want job-2 then job-1", list)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Add(&Trace{ID: "x"})
	if _, ok := r.Get("x"); ok {
		t.Error("nil recorder returned a trace")
	}
	if r.List() != nil {
		t.Error("nil recorder returned a list")
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				r.Add(&Trace{ID: fmt.Sprintf("j%d-%d", i, j)})
				r.List()
			}
		}(i)
	}
	wg.Wait()
	if got := len(r.List()); got != 8 {
		t.Fatalf("retained %d traces, want 8", got)
	}
}
