package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// SpanData is the serialized form of one finished span. Timestamps
// are microseconds relative to the tracer's construction.
type SpanData struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// Trace is one finished run's span set, sorted by start time then ID.
type Trace struct {
	ID    string     `json:"id"`
	Name  string     `json:"name"`
	Spans []SpanData `json:"spans"`
}

// DurUS returns the trace's end-to-end extent: the latest span end
// minus the earliest span start.
func (t *Trace) DurUS() int64 {
	if len(t.Spans) == 0 {
		return 0
	}
	lo, hi := t.Spans[0].StartUS, int64(0)
	for _, s := range t.Spans {
		if s.StartUS < lo {
			lo = s.StartUS
		}
		if end := s.StartUS + s.DurUS; end > hi {
			hi = end
		}
	}
	return hi - lo
}

// ChromeEvent is one Chrome trace-event record: a "complete" (ph "X")
// slice with explicit duration, the subset of the trace-event format
// that Perfetto and chrome://tracing both render.
type ChromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   int64             `json:"ts"`
	Dur  int64             `json:"dur"`
	PID  int64             `json:"pid"`
	TID  int64             `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// ChromeFile is the JSON-object flavor of the trace-event format.
type ChromeFile struct {
	TraceEvents     []ChromeEvent     `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

// Chrome renders the trace as trace-event records. Spans are packed
// onto display lanes (tid) greedily — each span takes the lowest lane
// free at its start time — so concurrent nodes stack instead of
// overdrawing; span identity and parentage travel in args.
func (t *Trace) Chrome() *ChromeFile {
	out := &ChromeFile{
		TraceEvents:     make([]ChromeEvent, 0, len(t.Spans)),
		DisplayTimeUnit: "ms",
		OtherData:       map[string]string{"trace_id": t.ID, "trace_name": t.Name},
	}
	var laneEnd []int64
	for _, s := range t.Spans {
		lane := -1
		for i, end := range laneEnd {
			if end <= s.StartUS {
				lane = i
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnd)
			laneEnd = append(laneEnd, 0)
		}
		laneEnd[lane] = s.StartUS + s.DurUS
		args := map[string]string{
			"span":   fmt.Sprint(s.ID),
			"parent": fmt.Sprint(s.Parent),
		}
		for _, a := range s.Attrs {
			args[a.Key] = a.Value
		}
		out.TraceEvents = append(out.TraceEvents, ChromeEvent{
			Name: s.Name, Cat: "span", Ph: "X",
			TS: s.StartUS, Dur: s.DurUS,
			PID: 1, TID: int64(lane + 1),
			Args: args,
		})
	}
	return out
}

// WriteChrome serializes the trace as Chrome trace-event JSON.
func (t *Trace) WriteChrome(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(t.Chrome()); err != nil {
		return fmt.Errorf("obs: encode chrome trace: %w", err)
	}
	return nil
}

// ParseChrome decodes Chrome trace-event JSON produced by WriteChrome
// (round-trip check; also accepts any object-flavor trace file).
func ParseChrome(r io.Reader) (*ChromeFile, error) {
	var f ChromeFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("obs: parse chrome trace: %w", err)
	}
	return &f, nil
}
