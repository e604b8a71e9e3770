// Package pipeline is the typed artifact-graph runtime behind the
// flow: each step of the methodology is a node with a stable
// content-addressed key, declared dependencies, and a compute
// function. A Graph resolves requests for terminal artifacts by
// walking the dependency closure and running every ready node
// concurrently under a bounded worker pool — the four chip-position
// characterizations and the per-strategy island generations schedule
// in parallel for free — while a pluggable Store deduplicates and
// caches computes across concurrent requests and, when the store is
// shared, across graphs.
//
// The runtime replaces the three hand-rolled orchestrations the repo
// grew before it (the imperative step-order bookkeeping in
// vipipe.Flow, the bespoke recompute logic of the service engine, and
// the per-tool sequences in cmd/): dependencies are edges, so "step X
// before step Y" errors are subsumed by the graph just computing X
// first, and a failure is reported naming the exact node that failed.
package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"vipipe/internal/flowerr"
	"vipipe/internal/obs"
)

// Node is one artifact in the graph: a stable ID (the content-address
// suffix under the graph's prefix), the IDs of the artifacts its
// compute consumes, and the compute itself.
type Node struct {
	// ID is the node's identity within the graph and the suffix of
	// its store key. It must be unique and non-empty.
	ID string
	// Deps lists the node IDs whose artifacts Compute consumes. Every
	// dependency must already be in the graph when the node is added,
	// which makes cycles unconstructible.
	Deps []string
	// Compute builds the artifact. ctx is the per-node context —
	// cancelled when the request is cancelled or a sibling fails —
	// and deps maps each declared dependency ID to its artifact.
	Compute func(ctx context.Context, deps map[string]any) (any, error)
	// Size estimates the artifact's retained bytes for bounded
	// stores; nil means a nominal 1KiB.
	Size func(v any) int64
}

// Hook observes every node a request resolves. It fires once per
// node, after the artifact is available, with the artifact, whether
// it came out of the store without computing (cached), and how long
// the node's compute ran (zero when cached). It runs on the scheduler
// goroutine before dependents unblock — keep it cheap and never
// mutate v: the same value is shared with every other consumer of the
// store.
type Hook func(id string, v any, cached bool, compute time.Duration)

// Graph is an immutable-after-construction artifact graph over a
// store. Build it with New and Add, then issue Request calls from any
// number of goroutines; Add must not race Request.
type Graph struct {
	prefix  string
	store   Store
	hook    Hook
	workers int
	nodes   map[string]*Node

	validateOnce sync.Once
	validateErr  error
}

// Option configures a Graph.
type Option func(*Graph)

// WithHook installs the node hook (e.g. the service's /metrics feed).
func WithHook(h Hook) Option { return func(g *Graph) { g.hook = h } }

// WithWorkers bounds the number of node computes running at once per
// request. n <= 0 keeps the default (GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(g *Graph) {
		if n > 0 {
			g.workers = n
		}
	}
}

// New returns an empty graph whose store keys are "<prefix>/<node>".
// The prefix is the content address of everything the nodes close
// over (for the flow: the configuration hash), so graphs built from
// identical inputs share artifacts through a shared store.
func New(prefix string, store Store, opts ...Option) *Graph {
	g := &Graph{
		prefix:  prefix,
		store:   store,
		workers: runtime.GOMAXPROCS(0),
		nodes:   make(map[string]*Node),
	}
	for _, opt := range opts {
		opt(g)
	}
	return g
}

// Add inserts a node. It rejects duplicate or empty IDs, nil
// computes, and dependencies on nodes not yet added — the
// add-dependencies-first discipline is what keeps the graph acyclic
// by construction.
func (g *Graph) Add(n Node) error {
	if n.ID == "" {
		return flowerr.BadInputf("pipeline: node with empty ID")
	}
	if n.Compute == nil {
		return flowerr.BadInputf("pipeline: node %q has no compute", n.ID)
	}
	if _, ok := g.nodes[n.ID]; ok {
		return flowerr.BadInputf("pipeline: duplicate node %q", n.ID)
	}
	for _, d := range n.Deps {
		if _, ok := g.nodes[d]; !ok {
			return flowerr.BadInputf("pipeline: node %q depends on unknown node %q (add dependencies first)", n.ID, d)
		}
	}
	g.nodes[n.ID] = &n
	return nil
}

// MustAdd is Add for statically-known graph shapes; it panics on a
// construction bug.
func (g *Graph) MustAdd(n Node) {
	if err := g.Add(n); err != nil {
		panic(err)
	}
}

// Key returns the store key of a node: "<prefix>/<id>".
func (g *Graph) Key(id string) string { return g.prefix + "/" + id }

// Nodes lists every node ID in lexical order.
func (g *Graph) Nodes() []string {
	ids := make([]string, 0, len(g.nodes))
	for id := range g.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// RequestOne resolves a single artifact.
func (g *Graph) RequestOne(ctx context.Context, id string) (any, error) {
	arts, err := g.Request(ctx, id)
	if err != nil {
		return nil, err
	}
	return arts[id], nil
}

// Request resolves the given artifacts, computing (or fetching from
// the store) their full dependency closure. Ready nodes run
// concurrently, bounded by the worker limit, each under its own child
// context; the first failure cancels the outstanding nodes and is
// returned wrapped with the failing node's ID (errors.Is still
// matches the underlying flowerr class). The returned map holds every
// node of the closure that completed — on error it carries the
// partial results, so callers can report partial progress.
func (g *Graph) Request(ctx context.Context, ids ...string) (map[string]any, error) {
	if err := g.validate(); err != nil {
		return nil, err
	}
	need := make(map[string]bool)
	var collect func(id string) error
	collect = func(id string) error {
		if need[id] {
			return nil
		}
		n, ok := g.nodes[id]
		if !ok {
			return flowerr.BadInputf("pipeline: unknown node %q", id)
		}
		need[id] = true
		for _, d := range n.Deps {
			if err := collect(d); err != nil {
				return err
			}
		}
		return nil
	}
	for _, id := range ids {
		if err := collect(id); err != nil {
			return nil, err
		}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	r := &run{
		results: make(map[string]any, len(need)),
		errs:    make(map[string]error, len(need)),
		done:    make(map[string]chan struct{}, len(need)),
		cancel:  cancel,
	}
	for id := range need {
		r.done[id] = make(chan struct{})
	}
	sem := make(chan struct{}, g.workers)

	var wg sync.WaitGroup
	for id := range need {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			g.runNode(runCtx, r, sem, id)
		}(id)
	}
	wg.Wait()

	r.mu.Lock()
	defer r.mu.Unlock()
	return r.results, r.firstErr
}

// run is the per-request scheduler state.
type run struct {
	mu       sync.Mutex
	results  map[string]any
	errs     map[string]error
	firstErr error
	done     map[string]chan struct{}
	cancel   context.CancelFunc
}

// fail records a node's error; the first failure recorded wins the
// request error and cancels the outstanding siblings, whose
// cancellation fallout then cannot displace it. Dependency failures
// propagate the dependency's error unwrapped, so whichever node
// records the root cause first, the request reports that cause.
func (r *run) fail(id string, err error) {
	r.mu.Lock()
	r.errs[id] = err
	if r.firstErr == nil {
		r.firstErr = err
		r.cancel()
	}
	r.mu.Unlock()
}

// runNode waits for the node's dependencies, then computes through
// the store under the worker bound.
func (g *Graph) runNode(ctx context.Context, r *run, sem chan struct{}, id string) {
	defer close(r.done[id])
	n := g.nodes[id]

	for _, d := range n.Deps {
		select {
		case <-r.done[d]:
		case <-ctx.Done():
			r.fail(id, flowerr.Cancelledf("pipeline: node %q: %w", id, ctx.Err()))
			return
		}
	}
	deps := make(map[string]any, len(n.Deps))
	r.mu.Lock()
	for _, d := range n.Deps {
		if derr := r.errs[d]; derr != nil {
			r.mu.Unlock()
			// Propagate the dependency's failure unwrapped so every
			// downstream node reports the same root cause.
			r.fail(id, derr)
			return
		}
		deps[d] = r.results[d]
	}
	r.mu.Unlock()

	// One span per artifact node, opened once its dependencies are
	// ready: queue_wait_us is the semaphore wait under the worker
	// bound, the rest of the span is store lookup plus compute.
	ctx, span := obs.Start(ctx, id)
	defer span.End()
	span.SetAttr("key", g.Key(id))

	select {
	case sem <- struct{}{}:
		defer func() { <-sem }()
	case <-ctx.Done():
		span.SetAttr("cancelled", true)
		r.fail(id, flowerr.Cancelledf("pipeline: node %q: %w", id, ctx.Err()))
		return
	}
	span.Lap("queue_wait_us")
	if err := ctx.Err(); err != nil {
		span.SetAttr("cancelled", true)
		r.fail(id, flowerr.Cancelledf("pipeline: node %q: %w", id, err))
		return
	}

	nodeCtx, nodeCancel := context.WithCancel(ctx)
	defer nodeCancel()
	computed := false
	var storedSize int64
	var computeDur time.Duration
	v, err := g.store.Do(ctx, g.Key(id), func() (any, int64, error) {
		computed = true
		t0 := obs.Now()
		v, err := n.Compute(nodeCtx, deps)
		if err != nil {
			return nil, 0, err
		}
		computeDur = obs.Since(t0)
		size := int64(1024)
		if n.Size != nil {
			size = n.Size(v)
		}
		storedSize = size
		return v, size, nil
	})
	if computed {
		span.SetAttr("cache", "miss")
		// bytes annotates where the artifact was encoded/stored, so
		// profiles can attribute store traffic per node kind.
		span.SetAttr("bytes", storedSize)
	} else {
		span.SetAttr("cache", "hit")
	}
	if err != nil {
		span.SetAttr("error", flowerr.Class(err))
		r.fail(id, fmt.Errorf("pipeline: node %q: %w", id, err))
		return
	}
	if g.hook != nil {
		g.hook(id, v, !computed, computeDur)
	}
	r.mu.Lock()
	r.results[id] = v
	r.mu.Unlock()
}
