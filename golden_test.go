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

// TestTimingModelGolden pins the bytes of the compact timing models:
// the SHA-256 of the disk-codec (gob) encoding of every tmodel/* node
// of the seed-1 TestConfig graph, for each slicing strategy at the
// four diagonal positions. Extraction is deterministic, so any change
// to path selection, cell data, validation bounds or the Model layout
// shows up here, and so does a change to the format DiskStore
// persists: a daemon restarted over an old store would still decode,
// but serve different answers.
func TestTimingModelGolden(t *testing.T) {
	golden := map[string]string{
		"tmodel/vertical/A":   "c0f1aaef73b1966d22e9007cd0cd31a4dfd8b93825ff499d670420f1fad87a3c",
		"tmodel/vertical/B":   "bb0ece0b0f8947f2edc25ed8b41df61571fc355806a975fb0d08a0611a3bcf30",
		"tmodel/vertical/C":   "a5a6ec1229fa27882d3a7945c1636c6b7ce0da959e3b8b456e7f672c8282f58f",
		"tmodel/vertical/D":   "fac292c20318e730443a6244ae9c73e075c753ff19d840348c85f21a71fbaab9",
		"tmodel/horizontal/A": "1e80fbd05cfd39131d290eed4265ab3ce21bb679b47f75ed9f865fb1dca0f8e2",
		"tmodel/horizontal/B": "fa26485e66dbef08d9236d42e6f8ea7215682bbfcb08390305a1a2df5cff4381",
		"tmodel/horizontal/C": "6442d9e7355804994430a05cb34fd31a540e2670f1c0b21a595ce8e147312363",
		"tmodel/horizontal/D": "7670fb8ed52acc810c69d039f6cf014846468d5854e36be3f3b8b8f9a0e7c8cf",
		"tmodel/corner/A":     "a0fd6ddcb16beab15d46a3a46b2083744bb5149644531a8cd33b938e094ffdcc",
		"tmodel/corner/B":     "c96a76a695b36bb15b43f72720039e233c1e96e2e876c0e2d2e63b485b3bc8ac",
		"tmodel/corner/C":     "13a169444ea5d0d907647676e539a9520525c659fa8de475b987d29885cf81de",
		"tmodel/corner/D":     "446897ad19d6d284ec749775258770a01cae577f16d850e3eb9e9f79c0af5768",
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
		b, err := DiskCodecs()(id).Encode(arts[id])
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		sum := sha256.Sum256(b)
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
