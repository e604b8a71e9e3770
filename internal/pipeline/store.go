package pipeline

import (
	"container/list"
	"context"
	"sync"

	"vipipe/internal/flowerr"
)

// Store is the pluggable artifact store behind a Graph: a
// content-addressed map from node keys to computed artifacts with
// singleflight semantics. Do returns the value for key, computing it
// at most once however many goroutines — across however many graphs
// sharing the store — ask concurrently. compute reports the
// artifact's approximate retained size in bytes so bounded stores can
// evict; a failed compute must never be cached, so the next caller
// retries. Waiters honor ctx and return an error matching
// flowerr.ErrCancelled when it expires while the compute (owned by
// the first caller) continues for the others.
//
// MemStore is the one implementation that runs singleflight; Tiered
// layers a DiskStore behind one.
type Store interface {
	Do(ctx context.Context, key string, compute func() (any, int64, error)) (any, error)
}

// MemStore is the in-memory Store: a map with singleflight computes,
// optionally bounded to a byte budget with least-recently-used
// eviction. NewMemStore never evicts — it backs private per-flow
// graphs, whose artifacts must live as long as the flow that owns
// them. NewBoundedMemStore gives a shared, long-lived store (the
// daemon's artifact cache) its bound.
type MemStore struct {
	mu       sync.Mutex
	capBytes int64 // <= 0: never evict
	size     int64
	ll       *list.List // front = most recently used, of *memEntry
	items    map[string]*list.Element
	inflight map[string]*memCall

	hits, misses, evictions int64
}

type memEntry struct {
	key  string
	val  any
	size int64
}

type memCall struct {
	done chan struct{}
	val  any
	err  error
}

// NewMemStore returns an empty, unbounded in-memory store.
func NewMemStore() *MemStore { return NewBoundedMemStore(0) }

// NewBoundedMemStore returns an empty in-memory store that evicts
// least-recently-used artifacts once their reported sizes (estimates,
// not exact heap bytes) sum past capBytes. capBytes <= 0 never
// evicts.
func NewBoundedMemStore(capBytes int64) *MemStore {
	return &MemStore{
		capBytes: capBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*memCall),
	}
}

// Do implements Store. A hit moves the key to the front of the
// eviction order.
func (s *MemStore) Do(ctx context.Context, key string, compute func() (any, int64, error)) (any, error) {
	for {
		s.mu.Lock()
		if el, ok := s.items[key]; ok {
			s.ll.MoveToFront(el)
			s.hits++
			v := el.Value.(*memEntry).val
			s.mu.Unlock()
			return v, nil
		}
		if call, ok := s.inflight[key]; ok {
			s.mu.Unlock()
			select {
			case <-call.done:
			case <-ctx.Done():
				return nil, flowerr.Cancelledf("pipeline: wait for %q: %w", key, ctx.Err())
			}
			if call.err == nil {
				return call.val, nil
			}
			// The computing caller failed (its cancellation, its
			// panic): retry from the top — this caller may own the
			// recompute now.
			if err := ctx.Err(); err != nil {
				return nil, flowerr.Cancelledf("pipeline: wait for %q: %w", key, err)
			}
			continue
		}
		call := &memCall{done: make(chan struct{})}
		s.inflight[key] = call
		s.misses++
		s.mu.Unlock()

		val, size, err := compute()
		call.val, call.err = val, err

		s.mu.Lock()
		delete(s.inflight, key)
		if err == nil {
			s.insert(key, val, size)
		}
		s.mu.Unlock()
		close(call.done)
		return val, err
	}
}

// insert adds an entry and, on a bounded store, evicts LRU entries
// past the byte bound; the caller holds mu. The just-inserted entry is
// never evicted, even when it alone exceeds the bound — evicting it
// would turn every access into a recompute of the most expensive
// artifact.
func (s *MemStore) insert(key string, val any, size int64) {
	if size < 1 {
		size = 1
	}
	s.items[key] = s.ll.PushFront(&memEntry{key: key, val: val, size: size})
	s.size += size
	for s.capBytes > 0 && s.size > s.capBytes && s.ll.Len() > 1 {
		back := s.ll.Back()
		be := back.Value.(*memEntry)
		s.ll.Remove(back)
		delete(s.items, be.key)
		s.size -= be.size
		s.evictions++
	}
}

// MemStats is a MemStore's accounting snapshot, published on the
// daemon's /metrics as its cache section.
type MemStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	SizeBytes int64 `json:"size_bytes"`
	CapBytes  int64 `json:"cap_bytes"`
}

// HitRate returns hits / (hits + misses), 0 when idle.
func (s MemStats) HitRate() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// Stats snapshots the accounting counters. A miss is one elected
// compute; waiters that shared it count as neither.
func (s *MemStore) Stats() MemStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return MemStats{
		Hits:      s.hits,
		Misses:    s.misses,
		Evictions: s.evictions,
		Entries:   s.ll.Len(),
		SizeBytes: s.size,
		CapBytes:  s.capBytes,
	}
}
