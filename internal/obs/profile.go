package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// RunProfile is the analysis of one finished trace: where the run's
// wall clock went. Raw spans say what happened; the profile attributes
// it — per-span self time (duration minus child overlap), the critical
// path that bounded completion, and a per-node-kind cost table folding
// the scheduler's span attributes (cache hit/miss, store tier, queue
// wait, artifact bytes) into one ranking of cost centers.
type RunProfile struct {
	TraceID   string `json:"trace_id"`
	TraceName string `json:"trace_name"`
	// WallUS is the trace's end-to-end extent; SelfTotalUS sums every
	// span's self time (> WallUS when nodes ran concurrently).
	WallUS      int64         `json:"wall_us"`
	SelfTotalUS int64         `json:"self_total_us"`
	Spans       []SpanProfile `json:"spans"`
	// CriticalPath walks from the latest-finishing root down through
	// the latest-finishing child at each level: the chain of spans
	// whose ends bounded the run's completion.
	CriticalPath []SpanProfile `json:"critical_path"`
	// Nodes ranks the per-kind cost centers by self time.
	Nodes []NodeCost `json:"nodes"`
}

// SpanProfile is one span with its derived costs and the scheduler
// attributes the profiler understands, parsed out of the attr list.
type SpanProfile struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	// SelfUS is DurUS minus the union of the span's child intervals
	// (clipped to the span): time spent in this span itself.
	SelfUS  int64  `json:"self_us"`
	QueueUS int64  `json:"queue_us,omitempty"`
	Cache   string `json:"cache,omitempty"`
	Tier    string `json:"tier,omitempty"`
	Bytes   int64  `json:"bytes,omitempty"`
}

// NodeCost aggregates the spans of one node kind (see kindOf): every
// field shard folds into "field", every characterization into "mc",
// so the table stays readable no matter how large the sweep.
type NodeCost struct {
	Kind     string  `json:"kind"`
	Spans    int     `json:"spans"`
	Hits     int     `json:"hits"`
	Misses   int     `json:"misses"`
	DiskHits int     `json:"disk_hits"`
	TotalUS  int64   `json:"total_us"`
	SelfUS   int64   `json:"self_us"`
	QueueUS  int64   `json:"queue_us"`
	Bytes    int64   `json:"bytes"`
	FracSelf float64 `json:"frac_self"`
}

// kindOf collapses a span name to its cost-accounting kind: the
// segment before the first "/" ("mc/A" -> "mc", "field/r3c2-ab/3" ->
// "field"), except surface folds keep their own bucket so the
// reduction does not hide inside the shard kind. Names without a
// slash (job.*, store.disk.*) are their own kind.
func kindOf(name string) string {
	if strings.HasPrefix(name, "field/surface/") {
		return "field/surface"
	}
	if i := strings.IndexByte(name, '/'); i > 0 {
		return name[:i]
	}
	return name
}

// attrValue returns the last value of key in the attr list ("" when
// absent) — last wins, matching append-order semantics of SetAttr.
func attrValue(attrs []Attr, key string) string {
	v := ""
	for _, a := range attrs {
		if a.Key == key {
			v = a.Value
		}
	}
	return v
}

// Profile analyzes a finished trace. It never mutates the trace and
// tolerates orphan spans (parent never ended): they profile as roots.
func Profile(t *Trace) *RunProfile {
	p := &RunProfile{TraceID: t.ID, TraceName: t.Name, WallUS: t.DurUS()}
	if len(t.Spans) == 0 {
		return p
	}

	present := make(map[int64]int, len(t.Spans)) // span ID -> index
	for i, s := range t.Spans {
		present[s.ID] = i
	}
	// effParent reparents orphans to the root, so every span lands in
	// exactly one children list.
	effParent := func(s SpanData) int64 {
		if _, ok := present[s.Parent]; !ok {
			return 0
		}
		return s.Parent
	}
	children := make(map[int64][]int)
	for i, s := range t.Spans {
		children[effParent(s)] = append(children[effParent(s)], i)
	}

	p.Spans = make([]SpanProfile, len(t.Spans))
	for i, s := range t.Spans {
		sp := SpanProfile{
			ID: s.ID, Parent: s.Parent, Name: s.Name,
			StartUS: s.StartUS, DurUS: s.DurUS,
			SelfUS: selfTime(s, children[s.ID], t.Spans),
			Cache:  attrValue(s.Attrs, "cache"),
			Tier:   attrValue(s.Attrs, "tier"),
		}
		sp.QueueUS, _ = strconv.ParseInt(attrValue(s.Attrs, "queue_wait_us"), 10, 64)
		sp.Bytes, _ = strconv.ParseInt(attrValue(s.Attrs, "bytes"), 10, 64)
		p.Spans[i] = sp
		p.SelfTotalUS += sp.SelfUS
	}

	// Critical path: start from the latest-finishing root and descend
	// into the latest-finishing child at every level.
	latest := func(idxs []int) int {
		best := -1
		var bestEnd, bestStart int64
		for _, i := range idxs {
			s := t.Spans[i]
			end := s.StartUS + s.DurUS
			if best < 0 || end > bestEnd || (end == bestEnd && s.StartUS > bestStart) {
				best, bestEnd, bestStart = i, end, s.StartUS
			}
		}
		return best
	}
	for at := latest(children[0]); at >= 0; at = latest(children[t.Spans[at].ID]) {
		p.CriticalPath = append(p.CriticalPath, p.Spans[at])
		if len(children[t.Spans[at].ID]) == 0 {
			break
		}
	}

	p.Nodes = costNodes(p.Spans, p.SelfTotalUS)
	return p
}

// selfTime is the span's duration minus the union of its children's
// intervals, clipped to the span's own extent.
func selfTime(s SpanData, childIdx []int, spans []SpanData) int64 {
	if len(childIdx) == 0 {
		return s.DurUS
	}
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(childIdx))
	end := s.StartUS + s.DurUS
	for _, i := range childIdx {
		c := spans[i]
		lo, hi := c.StartUS, c.StartUS+c.DurUS
		if lo < s.StartUS {
			lo = s.StartUS
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, cursor int64
	cursor = s.StartUS
	for _, v := range ivs {
		if v.lo > cursor {
			cursor = v.lo
		}
		if v.hi > cursor {
			covered += v.hi - cursor
			cursor = v.hi
		}
	}
	self := s.DurUS - covered
	if self < 0 {
		self = 0
	}
	return self
}

// costNodes folds span profiles into the per-kind cost table, ranked
// by self time (ties break on kind for determinism).
func costNodes(spans []SpanProfile, selfTotal int64) []NodeCost {
	byKind := make(map[string]*NodeCost)
	for _, sp := range spans {
		kind := kindOf(sp.Name)
		nc := byKind[kind]
		if nc == nil {
			nc = &NodeCost{Kind: kind}
			byKind[kind] = nc
		}
		nc.Spans++
		switch sp.Cache {
		case "hit":
			nc.Hits++
		case "miss":
			nc.Misses++
		}
		if sp.Tier == "disk" {
			nc.DiskHits++
		}
		nc.TotalUS += sp.DurUS
		nc.SelfUS += sp.SelfUS
		nc.QueueUS += sp.QueueUS
		nc.Bytes += sp.Bytes
	}
	out := make([]NodeCost, 0, len(byKind))
	for _, nc := range byKind {
		if selfTotal > 0 {
			nc.FracSelf = float64(nc.SelfUS) / float64(selfTotal)
		}
		out = append(out, *nc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfUS != out[j].SelfUS {
			return out[i].SelfUS > out[j].SelfUS
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// CostTable is the cross-run aggregation of NodeCost rows: the same
// ranking as one profile's Nodes, folded over every trace the flight
// recorder retained. Served at /debug/profile (no job ID).
type CostTable struct {
	Runs  int        `json:"runs"`
	Nodes []NodeCost `json:"nodes"`
}

// AggregateCosts profiles every trace and merges the per-kind rows.
// Nil traces are skipped.
func AggregateCosts(traces []*Trace) CostTable {
	ct := CostTable{}
	byKind := make(map[string]*NodeCost)
	var selfTotal int64
	for _, t := range traces {
		if t == nil {
			continue
		}
		ct.Runs++
		for _, nc := range Profile(t).Nodes {
			agg := byKind[nc.Kind]
			if agg == nil {
				agg = &NodeCost{Kind: nc.Kind}
				byKind[nc.Kind] = agg
			}
			agg.Spans += nc.Spans
			agg.Hits += nc.Hits
			agg.Misses += nc.Misses
			agg.DiskHits += nc.DiskHits
			agg.TotalUS += nc.TotalUS
			agg.SelfUS += nc.SelfUS
			agg.QueueUS += nc.QueueUS
			agg.Bytes += nc.Bytes
			selfTotal += nc.SelfUS
		}
	}
	ct.Nodes = make([]NodeCost, 0, len(byKind))
	for _, nc := range byKind {
		if selfTotal > 0 {
			nc.FracSelf = float64(nc.SelfUS) / float64(selfTotal)
		}
		ct.Nodes = append(ct.Nodes, *nc)
	}
	sort.Slice(ct.Nodes, func(i, j int) bool {
		if ct.Nodes[i].SelfUS != ct.Nodes[j].SelfUS {
			return ct.Nodes[i].SelfUS > ct.Nodes[j].SelfUS
		}
		return ct.Nodes[i].Kind < ct.Nodes[j].Kind
	})
	return ct
}

func msStr(us int64) string {
	return fmt.Sprintf("%.3fms", float64(us)/1000)
}

// WriteText renders the profile for terminals: header, critical path,
// then the cost-center table.
func (p *RunProfile) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "profile %s (%s): wall %s, self %s over %d spans\n",
		p.TraceID, p.TraceName, msStr(p.WallUS), msStr(p.SelfTotalUS), len(p.Spans)); err != nil {
		return err
	}
	if len(p.CriticalPath) > 0 {
		if _, err := fmt.Fprintln(w, "critical path:"); err != nil {
			return err
		}
		for i, sp := range p.CriticalPath {
			var extra strings.Builder
			if sp.Cache != "" {
				fmt.Fprintf(&extra, " cache=%s", sp.Cache)
			}
			if sp.Tier != "" {
				fmt.Fprintf(&extra, " tier=%s", sp.Tier)
			}
			if sp.QueueUS > 0 {
				fmt.Fprintf(&extra, " queue %s", msStr(sp.QueueUS))
			}
			if _, err := fmt.Fprintf(w, "  %s%s %s (self %s)%s\n",
				strings.Repeat("  ", i), sp.Name, msStr(sp.DurUS), msStr(sp.SelfUS), extra.String()); err != nil {
				return err
			}
		}
	}
	return writeCostTable(w, p.Nodes)
}

// WriteText renders the aggregated table.
func (ct CostTable) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "cost table over %d runs\n", ct.Runs); err != nil {
		return err
	}
	return writeCostTable(w, ct.Nodes)
}

func writeCostTable(w io.Writer, nodes []NodeCost) error {
	if len(nodes) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "cost centers (by self time):\n  %-20s %12s %6s %6s %9s %5s %12s %10s\n",
		"kind", "self", "%", "spans", "hit/miss", "disk", "queue", "bytes"); err != nil {
		return err
	}
	for _, nc := range nodes {
		if _, err := fmt.Fprintf(w, "  %-20s %12s %5.1f%% %6d %9s %5d %12s %10d\n",
			nc.Kind, msStr(nc.SelfUS), nc.FracSelf*100, nc.Spans,
			fmt.Sprintf("%d/%d", nc.Hits, nc.Misses), nc.DiskHits,
			msStr(nc.QueueUS), nc.Bytes); err != nil {
			return err
		}
	}
	return nil
}
