package rtc

import "floodguard/internal/flowtable"

// Shards returns the shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// TableStats returns the flow table counter snapshot, summed over
// partitions (atomics only — safe live).
func (e *Engine) TableStats() flowtable.Stats { return e.parts.Stats() }
