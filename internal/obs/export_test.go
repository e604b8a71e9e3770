package obs

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestChromeExportGolden(t *testing.T) {
	tr := NewTracerWithClock("run-1", "unit", fixedClock())
	ctx := WithTracer(context.Background(), tr)
	ctx, root := Start(ctx, "root")
	_, child := Start(ctx, "compute")
	child.SetAttr("cache", "miss")
	child.Lap("queue_wait_us")
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.Finish().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	const want = `{
 "traceEvents": [
  {
   "name": "root",
   "cat": "span",
   "ph": "X",
   "ts": 0,
   "dur": 0,
   "pid": 1,
   "tid": 1,
   "args": {
    "parent": "0",
    "span": "1"
   }
  },
  {
   "name": "compute",
   "cat": "span",
   "ph": "X",
   "ts": 0,
   "dur": 0,
   "pid": 1,
   "tid": 1,
   "args": {
    "cache": "miss",
    "parent": "1",
    "queue_wait_us": "0",
    "span": "2"
   }
  }
 ],
 "displayTimeUnit": "ms",
 "otherData": {
  "trace_id": "run-1",
  "trace_name": "unit"
 }
}
`
	if got := buf.String(); got != want {
		t.Errorf("chrome export mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestChromeRoundTrip(t *testing.T) {
	tr := NewTracerWithClock("rt", "roundtrip", stepClock())
	ctx := WithTracer(context.Background(), tr)
	ctx, root := Start(ctx, "outer")
	_, inner := Start(ctx, "inner")
	inner.SetAttr("k", "v")
	inner.End()
	root.End()
	trace := tr.Finish()

	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := ParseChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.TraceEvents) != len(trace.Spans) {
		t.Fatalf("decoded %d events, want %d", len(f.TraceEvents), len(trace.Spans))
	}
	for i, ev := range f.TraceEvents {
		s := trace.Spans[i]
		if ev.Name != s.Name || ev.TS != s.StartUS || ev.Dur != s.DurUS || ev.Ph != "X" {
			t.Errorf("event %d = %+v, want span %+v", i, ev, s)
		}
	}
	if f.OtherData["trace_id"] != "rt" {
		t.Errorf("trace_id = %q, want rt", f.OtherData["trace_id"])
	}
	if _, err := ParseChrome(strings.NewReader("{broken")); err == nil {
		t.Error("ParseChrome accepted malformed JSON")
	}
}
