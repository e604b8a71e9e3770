package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"vipipe/internal/obs"
)

// traceOp is one op of a traced pass.
type traceOp struct {
	index int
	latMS float64
	trace *obs.Trace
	// composed and fallback count the op's what-if answers by path
	// (daemon_mix only), for attribution.
	composed, fallback int
}

// traceMix is the per-op work a traced pass observed, in the units the
// probes price: kernel samples by kind, graph hits and what-if answers.
type traceMix struct {
	plainSamples, overlaySamples, mcSamples float64
	shards, hits, composed, fallback        float64
}

// attributed prices the mix with the probes: the ms of CPU per op the
// layers timed from outside account for.
func (m traceMix) attributed(p probes) float64 {
	us := m.shards*(p["yield.shard_fixed_us"]+p["sta.kernel_build_us"]) +
		m.plainSamples*p["yield.sample_us"] +
		m.overlaySamples*p["yield.overlay_sample_us"] +
		m.mcSamples*p["mc.sample_us"] +
		m.composed*p["tmodel.eval_overlay_us"] +
		m.fallback*p["tmodel.fallback_us"] +
		m.hits*p["pipeline.cache_hit_ns"]/1000
	return us / 1000
}

// kindName turns an obs.Profile node kind ("field/surface",
// "yield.shard") into a metric-name segment ("field_surface",
// "yield_shard").
func kindName(kind string) string {
	return strings.NewReplacer("/", "_", ".", "_").Replace(kind)
}

// kindCost accumulates one node kind over a pass.
type kindCost struct {
	busyUS, queueUS int64
	hits, misses    int
}

// summarizeTraces profiles every traced op and reports per-op busy
// time, queue wait, span count and graph hit share, plus a per-kind
// table as extra lines. Busy is self time minus queue_wait_us:
// obs.Profile counts a node's wait for a scheduler slot as its self
// time, which would credit the semaphore to whatever kind waits most.
func summarizeTraces(r *report, ops []traceOp) traceMix {
	var mix traceMix
	if len(ops) == 0 {
		return mix
	}
	kinds := map[string]*kindCost{}
	var busy, queue, spans, hits, misses int64
	for _, op := range ops {
		prof := obs.Profile(op.trace)
		for _, sp := range prof.Spans {
			spans++
			busy += sp.SelfUS - sp.QueueUS
			queue += sp.QueueUS
			switch sp.Cache {
			case "hit":
				hits++
			case "miss":
				misses++
			}
		}
		for _, nc := range prof.Nodes {
			kc := kinds[nc.Kind]
			if kc == nil {
				kc = &kindCost{}
				kinds[nc.Kind] = kc
			}
			kc.busyUS += nc.SelfUS - nc.QueueUS
			kc.queueUS += nc.QueueUS
			kc.hits += nc.Hits
			kc.misses += nc.Misses
		}
		for _, s := range op.trace.Spans {
			n, _ := strconv.ParseFloat(attr(s.Attrs, "samples"), 64)
			switch s.Name {
			case "yield.shard":
				mix.shards++
				if attr(s.Attrs, "overlay_cells") != "" {
					mix.overlaySamples += n
				} else {
					mix.plainSamples += n
				}
			case "mc.samples":
				mix.mcSamples += n
			}
		}
		mix.composed += float64(op.composed)
		mix.fallback += float64(op.fallback)
	}
	n := float64(len(ops))
	mix.hits = float64(hits)
	for _, v := range []*float64{&mix.plainSamples, &mix.overlaySamples, &mix.mcSamples, &mix.shards, &mix.hits, &mix.composed, &mix.fallback} {
		*v /= n
	}
	r.metrics["trace.busy_ms_per_op"] = float64(busy) / 1000 / n
	r.metrics["trace.queue_ms_per_op"] = float64(queue) / 1000 / n
	r.metrics["trace.spans_per_op"] = float64(spans) / n
	if hits+misses > 0 {
		r.metrics["trace.hit_frac"] = float64(hits) / float64(hits+misses)
	} else {
		r.metrics["trace.hit_frac"] = 0
	}
	for kind, kc := range kinds {
		name := "trace." + kindName(kind)
		r.extra[name+".busy_ms"] = float64(kc.busyUS) / 1000 / n
		if kc.hits+kc.misses > 0 {
			r.extra[name+".queue_ms"] = float64(kc.queueUS) / 1000 / n
			r.extra[name+".hits"] = float64(kc.hits) / n
			r.extra[name+".misses"] = float64(kc.misses) / n
		}
	}
	return mix
}

func attr(attrs []obs.Attr, key string) string {
	v := ""
	for _, a := range attrs {
		if a.Key == key {
			v = a.Value
		}
	}
	return v
}

// writeChrome writes the traced ops as one Chrome trace-event file,
// one process track per op, loadable in Perfetto.
func writeChrome(path string, ops []traceOp) error {
	out := obs.ChromeFile{DisplayTimeUnit: "ms"}
	for _, op := range ops {
		pid := int64(op.index + 1)
		out.TraceEvents = append(out.TraceEvents, obs.ChromeEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]string{"name": fmt.Sprintf("op %d (%.1fms)", op.index, op.latMS)},
		})
		for _, ev := range op.trace.Chrome().TraceEvents {
			ev.PID = pid
			out.TraceEvents = append(out.TraceEvents, ev)
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
