// ShardedLoop is a one-loop shim kept for the names benchmark/ladder.go still
// calls; it goes when ROADMAP item 2 drops them from benchmark/. Every run
// executes on one Loop, and so does this: every rack and the control side
// share it, and RunUntil and Fired are the Loop's own.

package sim

// ShardedLoop is one Loop under the lane engine's old names.
type ShardedLoop struct{ *Loop }

// NewSharded returns NewLoop(seed) wrapped; the rack and shard counts are
// ignored.
func NewSharded(seed int64, _, _ int) *ShardedLoop { return &ShardedLoop{NewLoop(seed)} }

// Control returns the loop.
func (e *ShardedLoop) Control() *Loop { return e.Loop }

// RackLoop returns the loop, whatever the rack.
func (e *ShardedLoop) RackLoop(int) *Loop { return e.Loop }

// SetLookahead does nothing: one loop needs no window.
func (e *ShardedLoop) SetLookahead(Dur) {}
