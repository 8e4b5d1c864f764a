package rtc

// Shards returns the shard count.
func (e *Engine) Shards() int { return len(e.shards) }
