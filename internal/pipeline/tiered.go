package pipeline

import (
	"context"

	"vipipe/internal/obs"
)

// Tiered composes an in-memory front tier (a MemStore, bounded or
// not) over a DiskStore: read-through on miss, write-through on
// compute. The memory tier runs the singleflight, so the disk tier
// only ever sees the one caller the front tier elected to compute.
//
// A disk hit surfaces to the graph as a cache hit (the compute closure
// returned without recomputing) with a "tier: disk" attribute on the
// node span; a memory hit never reaches this layer at all.
type Tiered struct {
	mem  Store
	disk *DiskStore
}

// NewTiered layers mem over disk. Both must be non-nil; a caller
// without a disk dir should use mem directly.
func NewTiered(mem Store, disk *DiskStore) *Tiered {
	return &Tiered{mem: mem, disk: disk}
}

// Do implements Store. The front tier runs its singleflight; inside
// the elected compute, Do first consults the disk tier and only falls
// back to the real compute on a disk miss, persisting the fresh
// artifact best-effort afterwards.
func (t *Tiered) Do(ctx context.Context, key string, compute func() (any, int64, error)) (any, error) {
	return t.mem.Do(ctx, key, func() (any, int64, error) {
		if v, size, ok := t.disk.Get(ctx, key); ok {
			obs.Current(ctx).SetAttr("tier", "disk")
			return v, size, nil
		}
		v, size, err := compute()
		if err == nil {
			t.disk.Put(ctx, key, v)
		}
		return v, size, err
	})
}
