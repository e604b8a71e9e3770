package service

import "context"

// Progress is a running job's coarse completion state: for a field
// sweep, shard artifacts resolved (computed or cache-hit) over the
// plan's total. Other kinds leave it unset.
type Progress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// ShardFunc receives per-shard completion events from a running
// field sweep. It runs on the pipeline scheduler goroutine, so sinks
// must stay cheap and non-blocking (the manager's sink updates the
// job's progress and publishes to the hub, which never waits on
// subscribers).
type ShardFunc func(ShardEvent)

type shardKey struct{}

// WithShardEvents attaches a shard-event sink to a request context;
// the worker wires the manager's event publisher in before Engine.Run.
func WithShardEvents(ctx context.Context, fn ShardFunc) context.Context {
	return context.WithValue(ctx, shardKey{}, fn)
}

// reportShard delivers a shard event to the context's sink, if any.
func reportShard(ctx context.Context, se ShardEvent) {
	if fn, ok := ctx.Value(shardKey{}).(ShardFunc); ok && fn != nil {
		fn(se)
	}
}
