package netsim

// Pending returns the number of not-yet-cancelled queued events.
func (e *Engine) Pending() int {
	n := 0
	for _, ev := range e.pq {
		if !ev.dead {
			n++
		}
	}
	return n
}
