// Package obs is the flow's tracing and profiling layer: per-node
// spans with context propagation, a bounded flight recorder of recent
// traces, and exporters to Chrome trace-event JSON (loadable in
// Perfetto / chrome://tracing) and a compact text tree.
//
// Tracing is opt-in and nil-safe: obs.Start returns a nil *Span when
// no Tracer rides the context, and every Span method no-ops on a nil
// receiver, so instrumented compute code stays unconditional and an
// untraced run pays only a context lookup. Spans never feed artifact
// state — traced and untraced runs produce bit-identical artifacts
// (the equivalence suite runs once with tracing enabled to prove it).
//
// obs is also the only package allowed to read the wall clock (the
// vipilint determinism rule enforces this module-wide): everything
// else that needs operational timestamps — scheduler hooks, job
// lifecycle metadata, metrics uptime — routes through obs.Now and
// obs.Since.
package obs

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"
)

// Now is the module's wall-clock edge: operational timestamps (job
// lifecycle, metrics uptime, latency hooks) read the clock here so
// deterministic compute packages never import one themselves.
func Now() time.Time { return time.Now() }

// Since is time.Since behind the same single wall-clock edge.
func Since(t time.Time) time.Duration { return time.Since(t) }

// Attr is one key/value annotation on a span. Attributes keep their
// insertion order, so serialized traces are deterministic.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Tracer collects the spans of one run (a CLI invocation, a daemon
// job). It is safe for concurrent use: the pipeline scheduler ends
// spans from many worker goroutines at once.
type Tracer struct {
	id    string
	name  string
	now   func() time.Time
	epoch time.Time

	mu     sync.Mutex
	nextID int64
	ended  []*Span
}

// NewTracer returns a tracer for the run identified by id (a job ID,
// a tool name) reading the real wall clock.
func NewTracer(id, name string) *Tracer {
	return NewTracerWithClock(id, name, Now)
}

// NewTracerWithClock is NewTracer with an injectable clock, so tests
// can zero every timestamp and golden-compare exported traces.
func NewTracerWithClock(id, name string, now func() time.Time) *Tracer {
	return &Tracer{id: id, name: name, now: now, epoch: now()}
}

// Finish snapshots the spans ended so far as an exportable Trace.
// Spans are sorted by start time then ID; timestamps are microseconds
// relative to the tracer's construction.
func (t *Tracer) Finish() *Trace {
	t.mu.Lock()
	spans := make([]*Span, len(t.ended))
	copy(spans, t.ended)
	t.mu.Unlock()

	out := &Trace{ID: t.id, Name: t.name, Spans: make([]SpanData, 0, len(spans))}
	for _, s := range spans {
		s.mu.Lock()
		d := SpanData{
			ID:      s.id,
			Parent:  s.parent,
			Name:    s.name,
			StartUS: s.start.Sub(t.epoch).Microseconds(),
			DurUS:   s.dur.Microseconds(),
			Attrs:   append([]Attr(nil), s.attrs...),
		}
		s.mu.Unlock()
		out.Spans = append(out.Spans, d)
	}
	sortSpans(out.Spans)
	return out
}

// span IDs start at 1 so parent==0 always means "root".

func (t *Tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// Span is one timed operation. The zero of *Span (nil) is a valid
// no-op span, so call sites never branch on whether tracing is on.
type Span struct {
	tr     *Tracer
	id     int64
	parent int64
	name   string
	start  time.Time

	mu      sync.Mutex
	lastLap time.Time
	attrs   []Attr
	dur     time.Duration
	ended   bool
}

type ctxKey struct{}

// WithTracer installs a tracer on the context; spans started from it
// (and its children) are recorded there. A nil tracer returns ctx
// unchanged.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, &Span{tr: t})
}

// Current returns the span riding the context — the innermost Start
// not yet popped — or nil when untraced. Layers beneath an
// instrumented operation (cache tiers under a graph node span) use it
// to annotate the caller's span without threading *Span through APIs.
func Current(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	if s == nil || s.tr == nil || s.id == 0 {
		return nil // the WithTracer root carrier is not a real span
	}
	return s
}

// Start opens a span named name under the context's current span and
// returns a context carrying the new span (so nested Starts build the
// parent chain). Without a tracer on the context it returns ctx
// unchanged and a nil span, whose methods all no-op.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(ctxKey{}).(*Span)
	if parent == nil || parent.tr == nil {
		return ctx, nil
	}
	t := parent.tr
	now := t.now()
	s := &Span{tr: t, id: t.newID(), parent: parent.id, name: name, start: now, lastLap: now}
	return context.WithValue(ctx, ctxKey{}, s), s
}

// SetAttr annotates the span. Values are rendered with fmt.Sprint, so
// strings, ints, bools and floats all serialize predictably.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: fmt.Sprint(value)})
	s.mu.Unlock()
}

// Lap records the microseconds elapsed since the span started (or
// since the previous Lap) as an attribute — the queue-wait vs compute
// split of a scheduler span, without the call site touching the clock.
func (s *Span) Lap(key string) {
	if s == nil {
		return
	}
	now := s.tr.now()
	s.mu.Lock()
	us := now.Sub(s.lastLap).Microseconds()
	s.lastLap = now
	s.attrs = append(s.attrs, Attr{Key: key, Value: strconv.FormatInt(us, 10)})
	s.mu.Unlock()
}

// End closes the span and hands it to the tracer. A second End is a
// no-op, so deferred Ends compose with explicit early ones.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := s.tr.now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = now.Sub(s.start)
	s.mu.Unlock()

	s.tr.mu.Lock()
	s.tr.ended = append(s.tr.ended, s)
	s.tr.mu.Unlock()
}

func sortSpans(spans []SpanData) {
	// Insertion sort keeps the package dependency-free; traces are
	// small (hundreds of spans).
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0 && spanLess(spans[j], spans[j-1]); j-- {
			spans[j], spans[j-1] = spans[j-1], spans[j]
		}
	}
}

func spanLess(a, b SpanData) bool {
	if a.StartUS != b.StartUS {
		return a.StartUS < b.StartUS
	}
	return a.ID < b.ID
}
