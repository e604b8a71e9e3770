package yield

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"

	"vipipe/internal/flowerr"
	"vipipe/internal/variation"
)

func TestParseGrid(t *testing.T) {
	for _, tc := range []struct {
		in     string
		nx, ny int
	}{
		{"16x16", 16, 16}, {"8X4", 8, 4}, {" 1x3 ", 1, 3},
		{"64x64", 64, 64}, {"4096x1", 4096, 1}, {"1x4096", 1, 4096},
	} {
		g, err := ParseGrid(tc.in)
		if err != nil {
			t.Fatalf("%q: %v", tc.in, err)
		}
		if g.NX != tc.nx || g.NY != tc.ny {
			t.Errorf("%q -> %dx%d", tc.in, g.NX, g.NY)
		}
	}
	for _, bad := range []string{"", "16", "0x4", "4x-1", "axb", "4x4x4",
		"65x64", "4097x1", "100000x100000",
		// Each side fits an int but the product overflows it.
		"4294967296x4294967296", "99999999999999999999x1"} {
		if _, err := ParseGrid(bad); !errors.Is(err, flowerr.ErrBadInput) {
			t.Errorf("%q: error %v, want ErrBadInput", bad, err)
		}
	}
}

func TestGridPositionsRowMajor(t *testing.T) {
	g := Grid{NX: 3, NY: 2}
	ps := g.Positions(14)
	if len(ps) != 6 {
		t.Fatalf("got %d positions", len(ps))
	}
	// Row-major: row 0 first, x sweeping left to right.
	if ps[0].Name != "r0c0" || ps[1].Name != "r0c1" || ps[3].Name != "r1c0" {
		t.Errorf("order: %v %v %v", ps[0].Name, ps[1].Name, ps[3].Name)
	}
	if ps[2].XMM != 14 || ps[2].YMM != 0 {
		t.Errorf("r0c2 at (%g,%g)", ps[2].XMM, ps[2].YMM)
	}
	if ps[5].XMM != 14 || ps[5].YMM != 14 {
		t.Errorf("r1c2 at (%g,%g)", ps[5].XMM, ps[5].YMM)
	}
	// Degenerate axes collapse to 0.
	one := Grid{NX: 1, NY: 1}.Positions(14)
	if one[0].XMM != 0 || one[0].YMM != 0 {
		t.Errorf("1x1 at (%g,%g)", one[0].XMM, one[0].YMM)
	}
}

func TestShardRangeTilesExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		samples := 1 + rng.Intn(5000)
		shards := 1 + rng.Intn(64)
		if shards > samples {
			shards = samples
		}
		next := 0
		for s := 0; s < shards; s++ {
			start, count := ShardRange(samples, shards, s)
			if start != next {
				t.Fatalf("samples=%d shards=%d: shard %d starts at %d, want %d", samples, shards, s, start, next)
			}
			if count < samples/shards || count > samples/shards+1 {
				t.Fatalf("samples=%d shards=%d: shard %d count %d unbalanced", samples, shards, s, count)
			}
			next = start + count
		}
		if next != samples {
			t.Fatalf("samples=%d shards=%d: ranges end at %d", samples, shards, next)
		}
	}
}

func TestCurveAxisNormalizeAndResolve(t *testing.T) {
	// Inverted bounds swap.
	a := CurveAxis{LoPS: 10, HiPS: 5, Points: 3}.Normalize()
	if a.LoPS != 5 || a.HiPS != 10 {
		t.Errorf("swap failed: %+v", a)
	}
	// Degenerate collapses to one point.
	for _, d := range []CurveAxis{{LoPS: 7, HiPS: 7, Points: 9}, {LoPS: 3, HiPS: 8, Points: 1}} {
		n := d.Normalize()
		if n.Points != 1 || n.HiPS != n.LoPS {
			t.Errorf("degenerate %+v -> %+v", d, n)
		}
	}
	// Zero axis resolves from the clock.
	r := CurveAxis{}.Resolve(4000)
	if r.LoPS != 0.90*4000 || r.HiPS != 1.15*4000 || r.Points != 33 {
		t.Errorf("resolve: %+v", r)
	}
	if p := r.Periods(); len(p) != 33 || p[0] != r.LoPS || p[32] != r.HiPS {
		t.Errorf("periods: %d [%g..%g]", len(p), p[0], p[len(p)-1])
	}
}

func TestPlanValidate(t *testing.T) {
	ok := Plan{Grid: Grid{4, 4}, Samples: 100, Shards: 4}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Plan{
		{Samples: 100, Shards: 4},                   // no grid or positions
		{Grid: Grid{4, 4}, Samples: 1, Shards: 1},   // too few samples
		{Grid: Grid{4, 4}, Samples: 100, Shards: 0}, // no shards
		{Grid: Grid{4, 4}, Samples: 10, Shards: 11}, // shards > samples
		{Grid: Grid{4, 4}, Samples: 100, Shards: 4, Axis: CurveAxis{Points: -1}},
		{Grid: Grid{4, 4}, Samples: 100, Shards: 4,
			Overlays: []PosOverlay{{Pos: "r0c0", RMM: 1}, {Pos: "r0c0", RMM: 2}}}, // dup overlay
		{Grid: Grid{4, 4}, Samples: 100, Shards: 4,
			Overlays: []PosOverlay{{Pos: "r0c0", RMM: 0}}}, // zero radius
		{Grid: Grid{65, 64}, Samples: 100, Shards: 4},                                       // > MaxPositions
		{Grid: Grid{100000, 100000}, Samples: 100, Shards: 4},                               // 10^10 positions
		{Grid: Grid{math.MaxInt/2 + 1, 4}, Samples: 100, Shards: 4},                         // product overflows
		{Positions: make([]variation.Pos, MaxPositions+1), Samples: 100, Shards: 4},         // explicit, too many
		{Grid: Grid{4, 4}, Samples: 1000, Shards: MaxShards + 1},                            // > MaxShards
		{Grid: Grid{4, 4}, Samples: 100, Shards: 4, Axis: CurveAxis{Points: math.MaxInt32}}, // huge histogram
		{Grid: Grid{4, 4}, Samples: 100, Shards: 4, Axis: CurveAxis{Points: MaxAxisPoints + 1}},
	}
	for i, p := range bad {
		if err := p.Validate(); !errors.Is(err, flowerr.ErrBadInput) {
			t.Errorf("bad plan %d: error %v, want ErrBadInput", i, err)
		}
	}
	// The largest plans inside every limit.
	for i, p := range []Plan{
		{Grid: Grid{64, 64}, Samples: 100, Shards: 4, Axis: CurveAxis{Points: MaxAxisPoints}},
		{Grid: Grid{4096, 1}, Samples: 100, Shards: MaxShards},
		{Positions: make([]variation.Pos, MaxPositions), Samples: 100, Shards: 4},
	} {
		if err := p.Validate(); err != nil {
			t.Errorf("plan %d at the limits: %v", i, err)
		}
	}
}

// TestOverlayValidate pins which discs a plan (and a whatif query)
// accepts: finite coordinates, radius and delta, a positive radius and
// |DeltaFrac| <= MaxDeltaFrac. A die-covering disc with delta -2 or
// 1e300 once computed NaN or +Inf scales.
func TestOverlayValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		ov   PosOverlay
		ok   bool
	}{
		{"typical", PosOverlay{XMM: 8, YMM: 12, RMM: 6, DeltaFrac: 0.05}, true},
		{"zero delta", PosOverlay{RMM: 1}, true},
		{"largest delta", PosOverlay{RMM: 100, DeltaFrac: MaxDeltaFrac}, true},
		{"largest negative delta", PosOverlay{RMM: 100, DeltaFrac: -MaxDeltaFrac}, true},
		{"negative centre", PosOverlay{XMM: -3, YMM: -4, RMM: 1, DeltaFrac: 0.1}, true},
		{"delta -2", PosOverlay{RMM: 100, DeltaFrac: -2}, false},
		{"delta 1e300", PosOverlay{RMM: 100, DeltaFrac: 1e300}, false},
		{"delta just past the bound", PosOverlay{RMM: 1, DeltaFrac: math.Nextafter(MaxDeltaFrac, 1)}, false},
		{"NaN delta", PosOverlay{RMM: 1, DeltaFrac: nan}, false},
		{"NaN radius", PosOverlay{RMM: nan, DeltaFrac: 0.1}, false},
		{"infinite radius", PosOverlay{RMM: inf, DeltaFrac: 0.1}, false},
		{"zero radius", PosOverlay{RMM: 0, DeltaFrac: 0.1}, false},
		{"negative radius", PosOverlay{RMM: -1, DeltaFrac: 0.1}, false},
		{"NaN x", PosOverlay{XMM: nan, RMM: 1}, false},
		{"infinite y", PosOverlay{YMM: -inf, RMM: 1}, false},
	}
	for _, tc := range cases {
		ov := tc.ov
		ov.Pos = "r0c0"
		err := ov.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%t", tc.name, err, tc.ok)
		}
		if err != nil && !errors.Is(err, flowerr.ErrBadInput) {
			t.Errorf("%s: error %v is not bad input", tc.name, err)
		}
		p := Plan{Grid: Grid{2, 2}, Samples: 8, Shards: 2, Overlays: []PosOverlay{ov}}
		if perr := p.Validate(); (perr == nil) != tc.ok {
			t.Errorf("%s: Plan.Validate() = %v, want ok=%t", tc.name, perr, tc.ok)
		}
	}
}

func TestResolvePositions(t *testing.T) {
	m := variation.Default()
	p := Plan{Grid: Grid{2, 2}, Samples: 10, Shards: 2,
		Overlays: []PosOverlay{{Pos: "r1c1", RMM: 2, DeltaFrac: 0.03}}}
	ps, err := p.ResolvePositions(&m)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 4 || ps[3].Name != "r1c1" {
		t.Fatalf("positions: %v", ps)
	}
	if ov := p.OverlayFor("r1c1"); ov == nil || ov.DeltaFrac != 0.03 {
		t.Errorf("overlay lookup: %v", ov)
	}
	if ov := p.OverlayFor("r0c0"); ov != nil {
		t.Errorf("phantom overlay: %v", ov)
	}
	// Overlay naming an unknown position fails.
	p.Overlays[0].Pos = "r9c9"
	if _, err := p.ResolvePositions(&m); err == nil {
		t.Error("unknown overlay position accepted")
	}
	// Explicit positions override the grid; duplicates rejected.
	p2 := Plan{Positions: []variation.Pos{{Name: "A"}, {Name: "A"}}, Samples: 10, Shards: 1}
	if _, err := p2.ResolvePositions(&m); err == nil {
		t.Error("duplicate position names accepted")
	}
}

// TestPosKeyIsolatesOverlayEdits is the dirty-shard property at the
// key level: editing one position's overlay must change that
// position's key and nobody else's, while the plan hash always moves.
func TestPosKeyIsolatesOverlayEdits(t *testing.T) {
	m := variation.Default()
	base := Plan{Grid: Grid{3, 3}, Samples: 60, Shards: 3, Seed: 5}
	tweaked := base
	tweaked.Overlays = []PosOverlay{{Pos: "r1c1", XMM: 7, YMM: 7, RMM: 2, DeltaFrac: 0.04}}
	ps, err := base.ResolvePositions(&m)
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for _, pos := range ps {
		if base.PosKey(pos) != tweaked.PosKey(pos) {
			changed++
			if pos.Name != "r1c1" {
				t.Errorf("overlay on r1c1 moved key of %s", pos.Name)
			}
		}
	}
	if changed != 1 {
		t.Errorf("%d keys changed, want 1", changed)
	}
	if base.Hash() == tweaked.Hash() {
		t.Error("plan hash did not move with the overlay")
	}
	// Seed and axis feed the keys too.
	reseeded := base
	reseeded.Seed = 6
	if base.PosKey(ps[0]) == reseeded.PosKey(ps[0]) {
		t.Error("seed not in position key")
	}
}

// TestSurfaceGroupingInvariance is the satellite property at the
// artifact level: the same leaf shard set, handed to the reduce in
// any order and pre-folded in any grouping, serializes to the
// identical Surface JSON bytes (shard counters included, since Merge
// sums provenance too).
func TestSurfaceGroupingInvariance(t *testing.T) {
	g := Grid{NX: 2, NY: 1}
	positions := g.Positions(14)
	axis := CurveAxis{LoPS: 3000, HiPS: 5500, Points: 17}
	vals0, vals1 := draws(21, 900), draws(22, 900)

	leaves := func(vals []float64, cuts []int, key, pos string, overlay bool) []*ShardStat {
		var out []*ShardStat
		lo := 0
		for _, hi := range append(cuts, len(vals)) {
			s := shardOf(key, vals[lo:hi], overlay)
			s.Pos = pos
			out = append(out, s)
			lo = hi
		}
		return out
	}
	build := func(perPos [][]*ShardStat) []byte {
		s, err := BuildSurface("plan", 4000, g, positions, axis, perPos)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	mk := func() [][]*ShardStat {
		return [][]*ShardStat{
			leaves(vals0, []int{100, 350, 351, 800}, "kA", "r0c0", false),
			leaves(vals1, []int{450}, "kB", "r0c1", true),
		}
	}

	want := build(mk())
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		perPos := mk()
		for pi := range perPos {
			shards := perPos[pi]
			rng.Shuffle(len(shards), func(i, j int) { shards[i], shards[j] = shards[j], shards[i] })
			// Pre-fold a random adjacent pair, as a cached partial
			// reduce would.
			for len(shards) > 1 && rng.Intn(2) == 0 {
				i := rng.Intn(len(shards) - 1)
				m, err := shards[i].Merge(*shards[i+1])
				if err != nil {
					t.Fatal(err)
				}
				shards[i] = &m
				shards = append(shards[:i+1], shards[i+2:]...)
			}
			perPos[pi] = shards
		}
		if got := build(perPos); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: surface bytes differ across shard groupings", trial)
		}
	}
}
