package yield

import (
	"context"

	"vipipe/internal/cell"
	"vipipe/internal/flowerr"
	"vipipe/internal/mc"
	"vipipe/internal/obs"
	"vipipe/internal/place"
	"vipipe/internal/sta"
	"vipipe/internal/variation"
)

// ShardInput carries everything one shard computation needs. The
// kernel must be exclusive to the call (kernels are not concurrent);
// every other field is shared read-only state.
type ShardInput struct {
	// Kernel is the SoA timing engine over the placed netlist.
	Kernel *sta.Kernel
	// PL locates each cell for the systematic variation map.
	PL *place.Placement
	// Model is the process-variation model.
	Model *variation.Model
	// Tech scales gate length into delay.
	Tech *cell.Tech
	// Pos is the chip position on the exposure field.
	Pos variation.Pos
	// Overlay, when non-nil, is the local disturbance whose perturbed
	// statistics the shard also accumulates (re-bounding only the disc
	// cells' fanout, mc.Chip.Shift).
	Overlay *PosOverlay
	// Key is the position content key stamped into the stat.
	Key string
	// Shard is the shard index (attribution only).
	Shard int
	// Start and Count are the global sample range (ShardRange).
	// Sample k draws from the stream "mc/<pos>/<k>" — the exact
	// stream mc.Run uses — so shard statistics are invariant under
	// re-sharding and bit-compatible with the A-D characterizations.
	Start int
	Count int
	// Seed is the root seed the per-sample streams derive from.
	Seed int64
	// Derate composes the slack-recovery factors (nil = none).
	Derate []float64
	// ClockPS is the flow clock the endpoint margins are taken at.
	ClockPS float64
	// Axis is the resolved period axis of the yield histograms.
	Axis CurveAxis
}

// ComputeShard runs the shard's Monte Carlo samples through the
// kernel and folds them into a ShardStat. Chips come from the same
// sample core as mc.Run's workers (mc.Chip), sample for sample, so a
// one-shard sweep reproduces mc.Run's critical-path distribution
// bit-for-bit: each sample is timed bound-then-refine, and its
// critical path equals a full Run on the exact scales.
//
// Cancellation is checked at every sample boundary; a cancelled shard
// returns an error rather than a partial stat, because merge
// invariance requires every shard to cover its exact sample range.
func ComputeShard(ctx context.Context, in ShardInput) (*ShardStat, error) {
	axis := in.Axis.Normalize()

	ctx, span := obs.Start(ctx, "yield.shard")
	defer span.End()
	span.SetAttr("pos", in.Pos.Name)
	span.SetAttr("shard", in.Shard)
	span.SetAttr("samples", in.Count)

	chip, err := mc.NewChip(in.Kernel, in.PL, in.Tech, in.Model, in.Pos, in.Seed, in.ClockPS, in.Derate, nil)
	if err != nil {
		return nil, err
	}

	// The overlay's dirty set: cells inside the disc, chip-local mm.
	var dirty []int
	deltaNM := 0.0
	if in.Overlay != nil {
		deltaNM = in.Model.LnomNM * in.Overlay.DeltaFrac
		r2 := in.Overlay.RMM * in.Overlay.RMM
		for i := 0; i < in.Kernel.NumCells(); i++ {
			cx, cy := in.PL.Center(i)
			dx := cx/1000 - in.Overlay.XMM
			dy := cy/1000 - in.Overlay.YMM
			if dx*dx+dy*dy <= r2 {
				dirty = append(dirty, i)
			}
		}
		span.SetAttr("overlay_cells", len(dirty))
	}

	stat := &ShardStat{
		Key:        in.Key,
		Pos:        in.Pos.Name,
		Shards:     1,
		Hist:       NewHistogram(axis.LoPS, axis.HiPS, axis.Points),
		HasOverlay: in.Overlay != nil,
	}
	if stat.HasOverlay {
		stat.OvHist = NewHistogram(axis.LoPS, axis.HiPS, axis.Points)
	}

	for k := in.Start; k < in.Start+in.Count; k++ {
		if err := ctx.Err(); err != nil {
			return nil, flowerr.Cancelledf(
				"yield: shard %s/%d cancelled after %d/%d samples: %w",
				in.Pos.Name, in.Shard, stat.Samples, in.Count, err)
		}
		chip.Sample(k)
		crit := chip.Crit()
		stat.Samples++
		stat.Crit.Observe(crit)
		stat.Hist.Observe(crit)

		if len(dirty) > 0 {
			chip.Shift(dirty, deltaNM)
			ovCrit := chip.Crit()
			stat.OvCrit.Observe(ovCrit)
			stat.OvHist.Observe(ovCrit)
		} else if in.Overlay != nil {
			// Disc misses every cell: the perturbed chip is the chip.
			stat.OvCrit.Observe(crit)
			stat.OvHist.Observe(crit)
		}
	}
	span.SetAttr("completed", stat.Samples)
	return stat, nil
}
