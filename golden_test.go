package vipipe

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"testing"

	"vipipe/internal/pipeline"
	"vipipe/internal/vi"
)

// TestConfigHashGolden pins the content hashes that key every cached
// artifact ("<hash>/<node>"): the daemon's warm-cache behaviour and
// any on-disk store depend on these staying put, so a refactor that
// silently changes them (field rename, new field without a version
// bump, different serialization) must fail here, not in production.
//
// If a change intentionally alters the hash (adding a Config field is
// the usual cause), update the values AND call it out in the change
// description: every deployed cache goes cold.
func TestConfigHashGolden(t *testing.T) {
	seed7 := TestConfig()
	seed7.Seed = 7
	mc500 := DefaultConfig()
	mc500.MCSamples = 500
	golden := []struct {
		name string
		cfg  Config
		want string
	}{
		{"default", DefaultConfig(), "61190e8ea2d36328f4d40beb065f778c"},
		{"test", TestConfig(), "c3534cf3012b067bbd91a10f19abef4c"},
		{"test-seed7", seed7, "1107b343c3356096073b0bf1c7364bd0"},
		{"default-mc500", mc500, "37fefb256730ee0eda98981c077771d4"},
	}
	for _, g := range golden {
		if got := g.cfg.Hash(); got != g.want {
			t.Errorf("%s: Hash() = %s, want %s — cache keys changed, see test comment", g.name, got, g.want)
		}
	}
	// Sanity: distinct configs must not collide.
	seen := map[string]string{}
	for _, g := range golden {
		h := g.cfg.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("hash collision between %s and %s", prev, g.name)
		}
		seen[h] = g.name
	}
}

// TestTimingModelGolden pins the compact timing models: the SHA-256 of
// the %+v rendering (field names, floats in shortest round-trip form)
// of every tmodel/* node of the seed-1 TestConfig graph, for each
// slicing strategy at the four diagonal positions, after a round trip
// through the disk codec. Extraction is deterministic, so any change
// to path selection, cell data, validation bounds or the Model layout
// shows up here, and so does a disk format that no longer restores
// the model a daemon would serve. The rendering, unlike gob's bytes,
// does not depend on which types the test binary encoded before.
func TestTimingModelGolden(t *testing.T) {
	golden := map[string]string{
		"tmodel/vertical/A":   "af9907f6f8015a0a3aa1f08339bbd9f1d4b42be407c7c9be0b137cf6ae214e33",
		"tmodel/vertical/B":   "5a11a438b010595c19905bcd4e50ec5214c22e934ee3d0453621567c6f47a4c4",
		"tmodel/vertical/C":   "42a4c13bff8aaf68dfeef0c78c861bf5a8b5dbaeb67baf6cff87d93351d95d4f",
		"tmodel/vertical/D":   "b3867b397b32de8276c5028939e0ddad6389527621677d932743a92eae8d93d5",
		"tmodel/horizontal/A": "692edc804a20b09b6a80506cec1c7a3b4a9fc9df0af6f1639b161b8643446526",
		"tmodel/horizontal/B": "1f5c1ae12cfa8204aa8a12baba0ff15e4e249650e6a6e61fe59c2f08f57b9d6c",
		"tmodel/horizontal/C": "4997d1428b76090075dda792eed40dde1671c187ad94d67353168f8111efaab1",
		"tmodel/horizontal/D": "d2e346eaca7062f436a83d49e709ade96ceab15ceeac5b98ee7438078ae22ded",
		"tmodel/corner/A":     "9785401f37712d0414e6a6295b482ba0900659b4742b234cf4550933dbb8c3e7",
		"tmodel/corner/B":     "666d485a008061db914f19e236013ed8c711954c89660da4a2e5064fa14ad554",
		"tmodel/corner/C":     "4d3ef3908fffdb0312715e4b666415cb801bd2bdd1c34515c69b29d03f8bfd98",
		"tmodel/corner/D":     "fba2e8096cefb2060881649b0e851cdd8132d90e7cc9e2ee005d2b920a2b2960",
	}
	ids := make([]string, 0, len(golden))
	for id := range golden {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	g := NewGraph(TestConfig(), pipeline.NewMemStore())
	arts, err := g.Request(context.Background(), ids...)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		c := DiskCodecs()(id)
		b, err := c.Encode(arts[id])
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		back, err := c.Decode(b)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		sum := sha256.Sum256(fmt.Appendf(nil, "%+v", back))
		if got := hex.EncodeToString(sum[:]); got != golden[id] {
			t.Errorf("%s: model digest %s, want %s — extraction output changed, see test comment", id, got, golden[id])
		}
	}
}

// TestIslandPartitionGolden pins the voltage-island partitions the
// compensation search returns: the SHA-256 of each partition's Region
// (int32, little-endian) followed by each island's FromUM and ToUM
// float64 bits, for TestConfig seeds 1-3 under every strategy and for
// the full core's vertical partition at seed 1. Any change to the
// search's candidate slices, its Monte Carlo checks or the cells a
// band takes shows up here.
func TestIslandPartitionGolden(t *testing.T) {
	strategies := []vi.Strategy{vi.Vertical, vi.Horizontal, vi.Corner}
	golden := []struct {
		full bool
		seed int64
		want []string // in strategies order; the full core runs vertical only
	}{
		{false, 1, []string{
			"10a0d12cba55fc5100d80a1df6327db067e0ff4664d91e3a6093cb448b3da620",
			"6fe46e9469e55b6f162568679f9c85072dca95ce4a98a7e10f8ee7573643da69",
			"8996406824d23bafdf6e9eb78de42a47919bf179748cb0efcc8450e0c4038433",
		}},
		{false, 2, []string{
			"5d55c5043caf94dc19880fff323f62ae62a95b2c40fd36bcf93909f1e1485f36",
			"445d3b8f9fa249efd5e0449fefcfbfefde477d1f618dc64c32b6ca06cbea6c09",
			"6691b9cacbafa3d9ba15bed14662616054ae777f22dae9b38fe6c028b7b6418a",
		}},
		{false, 3, []string{
			"24bbb199cf0b0f888f3e7db9ad9e6b464cb6b328bf1fb9eb65be83bb73e44a9b",
			"34e0e7209c7da9d2f2228e52c2a3c59b0fd3679d6a54f1773ad133a1fd4d1eb6",
			"2d89da2824cf3d653d8879aa0477d58ca005c9cec5e9864e2bb473190a2b4c36",
		}},
		{true, 1, []string{
			"0aea93691346c4f53bf07a9c318fd8618246fb0ee92a787e7547d3af82e08d1a",
		}},
	}
	for _, g := range golden {
		name := fmt.Sprintf("small-seed%d", g.seed)
		cfg := TestConfig()
		if g.full {
			name, cfg = fmt.Sprintf("full-seed%d", g.seed), DefaultConfig()
		}
		cfg.Seed = g.seed
		t.Run(name, func(t *testing.T) {
			if g.full && testing.Short() {
				t.Skip("full-size core island search")
			}
			f := New(cfg)
			for i, want := range g.want {
				part, err := f.GenerateIslands(context.Background(), strategies[i])
				if err != nil {
					t.Fatal(err)
				}
				if got := partitionDigest(part); got != want {
					t.Errorf("%v: partition digest %s, want %s — island search output changed, see test comment", strategies[i], got, want)
				}
			}
		})
	}
}

func partitionDigest(p *vi.Partition) string {
	var b []byte
	for _, r := range p.Region {
		b = binary.LittleEndian.AppendUint32(b, uint32(r))
	}
	for _, isl := range p.Islands {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(isl.FromUM))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(isl.ToUM))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
