package faultinject

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"vipipe/internal/cell"
	"vipipe/internal/def"
	"vipipe/internal/drc"
	"vipipe/internal/flowerr"
	"vipipe/internal/netlist"
	"vipipe/internal/place"
	"vipipe/internal/sdf"
	"vipipe/internal/stats"
)

const trials = 200

func buildFixture(t *testing.T) (*netlist.Netlist, *place.Placement) {
	t.Helper()
	b := netlist.NewBuilder("fitest", cell.Default65nm())
	x := b.NL.AddPI("x")
	y := b.NL.AddPI("y")
	q := b.DFF(b.Xor(x, y))
	n := q
	for i := 0; i < 20; i++ {
		n = b.And(b.Not(n), q)
	}
	b.DFF(n)
	pl, err := place.Global(b.NL, place.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return b.NL, pl
}

// requireTyped fails if err is a recovered panic or an error outside
// the flowerr taxonomy; nil is fine (the corruption may be benign).
func requireTyped(t *testing.T, what, detail string, err error) {
	t.Helper()
	if err == nil {
		return
	}
	var pe *flowerr.PanicError
	if errors.As(err, &pe) {
		t.Fatalf("%s (%s) PANICKED: %v\n%s", what, detail, pe.Value, pe.Stack)
	}
	if flowerr.ExitCode(err) == flowerr.ExitFailure {
		t.Errorf("%s (%s) returned an unclassified error: %v", what, detail, err)
	}
}

func TestGuardConvertsPanics(t *testing.T) {
	err := Guard(func() error { panic("boom") })
	if !errors.Is(err, flowerr.ErrWorkerPanic) {
		t.Fatalf("guarded panic yielded %v", err)
	}
	if err := Guard(func() error { return nil }); err != nil {
		t.Fatalf("clean call yielded %v", err)
	}
}

// TestCorruptedSDFNeverPanics round-trips corrupted SDF text through
// the parser and the scale extraction.
func TestCorruptedSDFNeverPanics(t *testing.T) {
	nl, _ := buildFixture(t)
	delays := make([]float64, nl.NumCells())
	for i := range delays {
		delays[i] = 15 + float64(i)
	}
	var buf bytes.Buffer
	if err := sdf.Write(&buf, nl, delays); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for seed := 0; seed < trials; seed++ {
		rng := stats.DeriveStream(int64(seed), "fi/sdf")
		data := CorruptText(good, rng)
		var file *sdf.File
		err := Guard(func() error {
			var perr error
			file, perr = sdf.Parse(bytes.NewReader(data))
			return perr
		})
		requireTyped(t, "sdf.Parse", fmt.Sprintf("seed %d", seed), err)
		if err != nil || file == nil {
			continue
		}
		err = Guard(func() error {
			_, serr := file.Scales(nl, func(i int) float64 { return delays[i] })
			return serr
		})
		requireTyped(t, "sdf.Scales", fmt.Sprintf("seed %d", seed), err)
	}
}

// TestCorruptedDEFNeverPanics round-trips corrupted DEF text through
// the parser and placement application.
func TestCorruptedDEFNeverPanics(t *testing.T) {
	_, pl := buildFixture(t)
	var buf bytes.Buffer
	if err := def.Write(&buf, pl); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for seed := 0; seed < trials; seed++ {
		rng := stats.DeriveStream(int64(seed), "fi/def")
		data := CorruptText(good, rng)
		var file *def.File
		err := Guard(func() error {
			var perr error
			file, perr = def.Parse(bytes.NewReader(data))
			return perr
		})
		requireTyped(t, "def.Parse", fmt.Sprintf("seed %d", seed), err)
		if err != nil || file == nil {
			continue
		}
		_, target := buildFixture(t)
		err = Guard(func() error { return file.Apply(target) })
		requireTyped(t, "def.Apply", fmt.Sprintf("seed %d", seed), err)
	}
}

// TestCorruptedNetlistCaughtByDRC mutates netlist structure and runs
// the DRC battery: never a panic, typed errors only, and the vast
// majority of corruptions detected.
func TestCorruptedNetlistCaughtByDRC(t *testing.T) {
	detected := 0
	for seed := 0; seed < trials; seed++ {
		nl, _ := buildFixture(t)
		rng := stats.DeriveStream(int64(seed), "fi/netlist")
		desc := CorruptNetlist(nl, rng)
		err := Guard(func() error { return drc.Check(drc.Inputs{NL: nl}).Err() })
		requireTyped(t, "drc.Check/netlist", fmt.Sprintf("seed %d: %s", seed, desc), err)
		if errors.Is(err, flowerr.ErrDRC) {
			detected++
		}
	}
	// Some corruptions are benign (e.g. dropping the driver of an
	// undriven net), but DRC must catch the bulk.
	if detected < trials*3/4 {
		t.Errorf("DRC detected only %d of %d netlist corruptions", detected, trials)
	}
}

// TestCorruptedPlacementCaughtByDRC does the same for placements.
func TestCorruptedPlacementCaughtByDRC(t *testing.T) {
	detected := 0
	for seed := 0; seed < trials; seed++ {
		nl, pl := buildFixture(t)
		rng := stats.DeriveStream(int64(seed), "fi/place")
		desc := CorruptPlacement(pl, rng)
		err := Guard(func() error { return drc.Check(drc.Inputs{NL: nl, PL: pl}).Err() })
		requireTyped(t, "drc.Check/placement", fmt.Sprintf("seed %d: %s", seed, desc), err)
		if errors.Is(err, flowerr.ErrDRC) {
			detected++
		}
		// The fail-fast Validate must agree that damage is damage, and
		// must not panic on it either.
		verr := Guard(func() error { return pl.Validate() })
		var pe *flowerr.PanicError
		if errors.As(verr, &pe) {
			t.Fatalf("place.Validate panicked (seed %d: %s): %v", seed, desc, pe.Value)
		}
		if err != nil && verr == nil {
			t.Errorf("seed %d (%s): DRC flags the placement but Validate passes it", seed, desc)
		}
	}
	if detected != trials {
		t.Errorf("DRC detected only %d of %d placement corruptions", detected, trials)
	}
}

// TestCorruptedRegionCaughtByDRC does the same for partition region
// vectors.
func TestCorruptedRegionCaughtByDRC(t *testing.T) {
	detected := 0
	for seed := 0; seed < trials; seed++ {
		nl, _ := buildFixture(t)
		region := make([]int32, nl.NumCells())
		rng := stats.DeriveStream(int64(seed), "fi/region")
		bad, desc := CorruptRegion(region, rng)
		err := Guard(func() error {
			return drc.Check(drc.Inputs{NL: nl, Region: bad, ShiftersInserted: true}).Err()
		})
		requireTyped(t, "drc.Check/region", fmt.Sprintf("seed %d: %s", seed, desc), err)
		if errors.Is(err, flowerr.ErrDRC) {
			detected++
		}
	}
	// Truncations are always caught; raising a region index is only a
	// violation when it creates an uncovered low->high crossing.
	if detected < trials/3 {
		t.Errorf("DRC detected only %d of %d region corruptions", detected, trials)
	}
}
