package spsc

// Cap returns the ring capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// pop dequeues one element through PopBatch. Consumer only.
func (r *Ring[T]) pop() (v T, ok bool) {
	var one [1]T
	ok = r.PopBatch(one[:]) == 1
	return one[0], ok
}

// PopBatchWait dequeues up to len(dst) elements, waiting (Wait) while
// the ring is empty. It returns 0 only when the ring is closed and fully
// drained. Consumer only.
func (r *Ring[T]) PopBatchWait(dst []T) int {
	for {
		if n := r.PopBatch(dst); n > 0 {
			return n
		}
		if r.closed.Load() {
			// Drain anything pushed between the pop and the close flag.
			return r.PopBatch(dst)
		}
		r.Wait()
	}
}
