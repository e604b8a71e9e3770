package service

import "testing"

// TestConfigSpecToConfigHash pins the spec-to-key mapping every daemon
// artifact depends on: the empty, small and small seed-7 specs resolve
// to the configs of TestConfigHashGolden's default, test and
// test-seed7 hashes.
func TestConfigSpecToConfigHash(t *testing.T) {
	for _, c := range []struct {
		spec ConfigSpec
		want string
	}{
		{ConfigSpec{}, "61190e8ea2d36328f4d40beb065f778c"},
		{ConfigSpec{Small: true}, "c3534cf3012b067bbd91a10f19abef4c"},
		{ConfigSpec{Small: true, Seed: 7}, "1107b343c3356096073b0bf1c7364bd0"},
	} {
		if got := c.spec.ToConfig().Hash(); got != c.want {
			t.Errorf("%+v: ToConfig().Hash() = %s, want %s", c.spec, got, c.want)
		}
	}
}

// TestEngineGraphMemoBounded: a stream of distinct configs (every new
// seed is one) cannot grow the engine's graph memo past its bound.
func TestEngineGraphMemoBounded(t *testing.T) {
	e := NewEngine(NewCache(1<<20), nil)
	for seed := int64(1); seed <= 65; seed++ {
		if e.graph(ConfigSpec{Small: true, Seed: seed}.ToConfig()) == nil {
			t.Fatalf("seed %d: no graph", seed)
		}
	}
	e.mu.Lock()
	n := len(e.graphs)
	e.mu.Unlock()
	if n > 64 {
		t.Fatalf("65 distinct configs left %d memoized graphs; want at most 64", n)
	}
}
