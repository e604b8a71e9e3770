// Package pipeline is the typed artifact-graph runtime behind the
// flow: each step of the methodology is a node with a stable
// content-addressed key, declared dependencies, and a compute
// function. A Graph resolves a request for terminal artifacts in one
// pass over their dependency closure: a fixed pool of workers takes
// nodes from one ready queue, and a node joins the queue when its
// last dependency settles — the four chip-position characterizations
// and the per-strategy island generations run in parallel for free.
// A pluggable Store deduplicates and caches computes across
// concurrent requests and, when the store is shared, across graphs.
//
// Dependencies are edges, so "step X before step Y" is the graph
// computing X first, and a failure is reported naming the exact node
// that failed.
package pipeline

import (
	"context"
	"fmt"
	"runtime"
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
// the node's compute ran (zero when cached). It runs on the worker
// that resolved the node, before any dependent is released — keep it
// cheap and never mutate v: the same value is shared with every other
// consumer of the store.
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
}

// Option configures a Graph.
type Option func(*Graph)

// WithHook installs the node hook (e.g. the service's /metrics feed).
func WithHook(h Hook) Option { return func(g *Graph) { g.hook = h } }

// WithWorkers sets the size of each request's worker pool: at most n
// nodes resolve at once, on at most n goroutines. n <= 0 keeps the
// default (GOMAXPROCS).
//
//lint:ignore deadcode TestCharacterizeCancelledMidRun and TestGraphWorkerBound need one worker, TestGraphRunsReadyNodesConcurrently four; production keeps GOMAXPROCS
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

// RequestOne resolves a single artifact.
func (g *Graph) RequestOne(ctx context.Context, id string) (any, error) {
	arts, err := g.Request(ctx, id)
	if err != nil {
		return nil, err
	}
	return arts[id], nil
}

// Request resolves the given artifacts, computing (or fetching from
// the store) their full dependency closure. It schedules the closure
// Kahn-style: min(workers, closure size) goroutines take ready nodes
// from one queue, and a node is queued once its last dependency has
// settled. The first failure cancels the outstanding nodes and is
// returned wrapped with the failing node's ID (errors.Is still
// matches the underlying flowerr class); a node downstream of a
// failure settles with that error, unwrapped, without running. The
// returned map holds every node of the closure that completed — on
// error it carries the partial results, so callers can report partial
// progress.
func (g *Graph) Request(ctx context.Context, ids ...string) (map[string]any, error) {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &run{g: g, ctx: runCtx, cancel: cancel, index: make(map[string]int)}
	var collect func(id string) error
	collect = func(id string) error {
		if _, ok := r.index[id]; ok {
			return nil
		}
		n, ok := g.nodes[id]
		if !ok {
			return flowerr.BadInputf("pipeline: unknown node %q", id)
		}
		for _, d := range n.Deps {
			if err := collect(d); err != nil {
				return err
			}
		}
		r.index[id] = len(r.nodes)
		r.nodes = append(r.nodes, n)
		return nil
	}
	for _, id := range ids {
		if err := collect(id); err != nil {
			return nil, err
		}
	}

	r.slots = make([]slot, len(r.nodes))
	r.left = len(r.nodes)
	r.ready = make(chan int, len(r.nodes))
	for i, n := range r.nodes {
		r.slots[i].pending = len(n.Deps)
		for _, d := range n.Deps {
			j := r.index[d]
			r.slots[j].dependents = append(r.slots[j].dependents, i)
		}
		if len(n.Deps) == 0 {
			r.enqueue(i)
		}
	}
	var wg sync.WaitGroup
	for w := min(g.workers, len(r.nodes)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range r.ready {
				r.runNode(i)
			}
		}()
	}
	wg.Wait()

	arts := make(map[string]any, len(r.nodes))
	for i, n := range r.nodes {
		if r.slots[i].err == nil {
			arts[n.ID] = r.slots[i].v
		}
	}
	return arts, r.firstErr
}

// run is the per-request scheduler state. Nodes are indexed by their
// position in the closure, which lists every node after its
// dependencies.
type run struct {
	g      *Graph
	ctx    context.Context
	cancel context.CancelFunc
	index  map[string]int
	nodes  []*Node
	slots  []slot
	// ready holds one send per node at most, so a send never blocks.
	ready chan int

	mu       sync.Mutex
	left     int // nodes not yet settled; the last to settle closes ready
	firstErr error
}

// slot is one closure node's scheduling state and outcome.
type slot struct {
	dependents []int
	pending    int             // dependencies not yet settled
	ctx        context.Context // the node span's context, set once ready
	span       *obs.Span
	v          any
	err        error // set before the node runs when a dependency failed
	// computed, size and dur record the store's call of Compute, if any.
	computed bool
	size     int64
	dur      time.Duration
}

// enqueue queues a ready node. Unless a dependency failed, it opens
// the node's span first: queue_wait_us runs from here until a worker
// picks the node up.
func (r *run) enqueue(i int) {
	if s := &r.slots[i]; s.err == nil {
		s.ctx, s.span = obs.Start(r.ctx, r.nodes[i].ID)
	}
	r.ready <- i
}

// settle records a node's outcome and releases its dependents,
// queueing those it made ready. The first failure wins the request
// error and cancels the outstanding nodes, whose cancellation fallout
// then cannot displace it. A failure passes to the dependents
// unwrapped, so every downstream node settles with the same root
// cause, without running.
func (r *run) settle(i int, v any, err error) {
	var ready []int
	r.mu.Lock()
	s := &r.slots[i]
	s.v, s.err = v, err
	if err != nil && r.firstErr == nil {
		r.firstErr = err
		r.cancel()
	}
	if r.left--; r.left == 0 {
		close(r.ready)
	}
	for _, d := range s.dependents {
		if err != nil {
			r.slots[d].err = err
		}
		if r.slots[d].pending--; r.slots[d].pending == 0 {
			ready = append(ready, d)
		}
	}
	r.mu.Unlock()
	for _, d := range ready {
		r.enqueue(d)
	}
}

// runNode resolves a ready node through the store, runs the hook on
// success, and settles it; a node whose dependency failed settles at
// once.
func (r *run) runNode(i int) {
	n, s := r.nodes[i], &r.slots[i]
	if s.err != nil {
		r.settle(i, nil, s.err)
		return
	}
	key := r.g.Key(n.ID)
	s.span.SetAttr("key", key)
	s.span.Lap("queue_wait_us")
	if err := r.ctx.Err(); err != nil {
		s.span.SetAttr("cancelled", true)
		s.span.End()
		r.settle(i, nil, flowerr.Cancelledf("pipeline: node %q: %w", n.ID, err))
		return
	}

	v, err := r.g.store.Do(s.ctx, key, func() (any, int64, error) {
		s.computed = true
		deps := make(map[string]any, len(n.Deps))
		for _, d := range n.Deps {
			deps[d] = r.slots[r.index[d]].v
		}
		nodeCtx, nodeCancel := context.WithCancel(s.ctx)
		defer nodeCancel()
		t0 := obs.Now()
		v, err := n.Compute(nodeCtx, deps)
		if err != nil {
			return nil, 0, err
		}
		s.dur = obs.Since(t0)
		s.size = 1024
		if n.Size != nil {
			s.size = n.Size(v)
		}
		return v, s.size, nil
	})
	if s.computed {
		s.span.SetAttr("cache", "miss")
		// bytes annotates where the artifact was encoded/stored, so
		// profiles can attribute store traffic per node kind.
		s.span.SetAttr("bytes", s.size)
	} else {
		s.span.SetAttr("cache", "hit")
	}
	if err != nil {
		s.span.SetAttr("error", flowerr.Class(err))
		err = fmt.Errorf("pipeline: node %q: %w", n.ID, err)
	} else if r.g.hook != nil {
		r.g.hook(n.ID, v, !s.computed, s.dur)
	}
	s.span.End()
	r.settle(i, v, err)
}
