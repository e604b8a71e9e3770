// Package service exposes the vipipe flow as a long-running analysis
// service: a content-addressed result cache over the expensive flow
// artifacts, a job manager with a bounded worker pool, and an HTTP
// frontend (cmd/vipiped) with a /metrics endpoint. The design mirrors
// an inference-serving stack: one immutable baseline per configuration
// hash, cached characterizations layered on top, and many concurrent
// parameterized queries that share them.
package service

import "vipipe/internal/pipeline"

// Cache is the daemon's artifact cache: the pipeline's in-memory store
// with a byte bound. Keys are vipipe.Config.Hash plus the artifact path
// (e.g. "a1b2.../mc/B"), so identical configurations share one
// synthesize+place+analyze+characterize no matter how many jobs ask.
type Cache = pipeline.MemStore

// CacheStats is the cache's accounting snapshot for /metrics.
type CacheStats = pipeline.MemStats

// NewCache returns a cache bounded to roughly capBytes of artifact
// cost (as reported by the compute callbacks; estimates, not exact
// heap bytes). capBytes <= 0 means 1 GiB.
func NewCache(capBytes int64) *Cache {
	if capBytes <= 0 {
		capBytes = 1 << 30
	}
	return pipeline.NewBoundedMemStore(capBytes)
}
