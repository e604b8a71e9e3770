package pipeline

import (
	"context"
	"testing"
)

func constEntry(v any, size int64) func() (any, int64, error) {
	return func() (any, int64, error) { return v, size, nil }
}

// has reports whether key is stored, without touching its recency.
func has(s *MemStore, key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.items[key]
	return ok
}

func TestMemStoreHitMissAccounting(t *testing.T) {
	s := NewBoundedMemStore(1 << 20)
	ctx := context.Background()

	v, err := s.Do(ctx, "k", constEntry("first", 10))
	if err != nil || v != "first" {
		t.Fatalf("Do miss = %v, %v", v, err)
	}
	v, err = s.Do(ctx, "k", constEntry("second", 10))
	if err != nil || v != "first" {
		t.Fatalf("Do hit = %v, %v; want cached %q", v, err, "first")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.SizeBytes != 10 || st.CapBytes != 1<<20 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss, 1 entry, 10 bytes of a 1 MiB cap", st)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Fatalf("HitRate = %v; want 0.5", got)
	}
}

func TestMemStoreLRUEviction(t *testing.T) {
	s := NewBoundedMemStore(100)
	ctx := context.Background()

	for _, k := range []string{"a", "b", "c"} {
		if _, err := s.Do(ctx, k, constEntry(k, 40)); err != nil {
			t.Fatal(err)
		}
	}
	// a is least recently used: inserting c pushed size to 120 > 100.
	if has(s, "a") || !has(s, "b") || !has(s, "c") {
		t.Fatal("want only a evicted")
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.SizeBytes != 80 {
		t.Fatalf("stats = %+v; want 1 eviction, 2 entries, 80 bytes", st)
	}

	// A hit moves b to the front, so c is now LRU: inserting d must
	// evict c and keep the recently-used b.
	if v, err := s.Do(ctx, "b", constEntry("recomputed", 40)); err != nil || v != "b" {
		t.Fatalf("Do hit on b = %v, %v; want the cached b", v, err)
	}
	if _, err := s.Do(ctx, "d", constEntry("d", 40)); err != nil {
		t.Fatal(err)
	}
	if has(s, "c") || !has(s, "b") || !has(s, "d") {
		t.Fatal("want LRU c evicted, recently-used b kept")
	}
}

// TestMemStoreNeverEvictsJustInserted: an entry larger than the whole
// bound stays until the next insert displaces it, and an unbounded
// store keeps everything.
func TestMemStoreNeverEvictsJustInserted(t *testing.T) {
	ctx := context.Background()
	s := NewBoundedMemStore(10)
	if _, err := s.Do(ctx, "huge", constEntry("v", 500)); err != nil {
		t.Fatal(err)
	}
	if !has(s, "huge") {
		t.Fatal("oversized entry evicted itself; want it retained")
	}
	if st := s.Stats(); st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v; want the single oversized entry kept", st)
	}

	u := NewMemStore()
	for _, k := range []string{"a", "b", "c"} {
		if _, err := u.Do(ctx, k, constEntry(k, 1<<40)); err != nil {
			t.Fatal(err)
		}
	}
	if st := u.Stats(); st.Entries != 3 || st.Evictions != 0 {
		t.Fatalf("unbounded stats = %+v; want every entry kept", st)
	}
}
