// Package spsc provides a single-producer/single-consumer lock-free ring
// buffer — the handoff primitive of the run-to-completion packet engine.
// Exactly one goroutine may push and exactly one may pop; under that
// contract every operation is wait-free for the producer and lock-free
// for the consumer, and the hot paths (Push, the batched push and pop,
// Reserve/Commit and Peek/Release) perform no allocation and take no
// mutex.
//
// The consumer's blocking wait is busy-poll-then-park: it spins briefly
// (the common case under load — the ring refills within nanoseconds),
// yields the processor a few times, and only then parks on a channel the
// producer pokes when it publishes into an empty ring. An idle shard
// therefore costs nothing, while a loaded shard never pays a futex wait
// per packet. Wait's spin also takes a pending wake token, so a token
// left by a producer poke or Close cannot turn the next park into a
// spurious wakeup.
package spsc

import (
	"runtime"
	"sync/atomic"
)

// cacheLinePad separates the producer- and consumer-owned indices so a
// push and a pop never false-share a cache line.
type cacheLinePad [64]byte

// Ring is a bounded single-producer/single-consumer queue of T.
//
// Each side keeps a private copy of the other side's index next to its
// own and reads the shared one only when the copy cannot satisfy the
// call: the producer re-reads head when headSeen leaves too little room,
// the consumer re-reads tail when tailSeen leaves too few elements. A
// stale copy errs on the safe side (head and tail only advance), so
// results are what they would be reading the shared index every time —
// but while the ring is neither full nor empty a push touches only the
// producer's cache line and a pop only the consumer's.
//
// Reserve/Commit is PushBatch in place: elements produced one at a time
// are filled where they lie and published by one tail store, one fence.
// Peek/Release is PopBatch in place on the consumer's side: elements are
// read where they lie and handed back by one head store.
type Ring[T any] struct {
	buf  []T
	mask uint64

	_        cacheLinePad
	head     atomic.Uint64 // next slot to pop; advanced only by the consumer
	tailSeen uint64        // consumer-private: tail at the consumer's last look
	_        cacheLinePad
	tail     atomic.Uint64 // next slot to push; advanced only by the producer
	headSeen uint64        // producer-private: head at the producer's last look
	reserved uint64        // producer-private: slots reserved past tail, not yet committed
	_        cacheLinePad

	closed atomic.Bool
	parked atomic.Bool
	wake   chan struct{}
}

// New returns a ring holding at least capacity elements (rounded up to a
// power of two, minimum 2).
func New[T any](capacity int) *Ring[T] {
	c := 2
	for c < capacity {
		c <<= 1
	}
	return &Ring[T]{
		buf:  make([]T, c),
		mask: uint64(c - 1),
		wake: make(chan struct{}, 1),
	}
}

// Len returns the current occupancy. It is exact for the producer and
// the consumer and a point-in-time estimate for anyone else.
func (r *Ring[T]) Len() int { return int(r.tail.Load() - r.head.Load()) }

// Push enqueues v, returning false when the ring is full. Producer only.
func (r *Ring[T]) Push(v T) bool {
	t := r.tail.Load()
	if t-r.headSeen > r.mask {
		if r.headSeen = r.head.Load(); t-r.headSeen > r.mask {
			return false
		}
	}
	r.buf[t&r.mask] = v
	r.tail.Store(t + 1)
	r.notify()
	return true
}

// PushBatch enqueues as many of vs as fit, publishing them with a single
// index store, and returns how many were taken. Producer only.
func (r *Ring[T]) PushBatch(vs []T) int {
	t := r.tail.Load()
	n := uint64(len(vs))
	if free := r.mask + 1 - (t - r.headSeen); n > free {
		r.headSeen = r.head.Load()
		if free = r.mask + 1 - (t - r.headSeen); n > free {
			n = free
		}
	}
	for i := uint64(0); i < n; i++ {
		r.buf[(t+i)&r.mask] = vs[i]
	}
	if n > 0 {
		r.tail.Store(t + n)
		r.notify()
	}
	return int(n)
}

// Reserve claims the next free slot for the producer to overwrite in
// place, or returns nil when the ring (reservations included) is full.
// The consumer cannot see it until Commit, which must come before the
// producer's next Push or PushBatch. Producer only.
func (r *Ring[T]) Reserve() *T {
	t := r.tail.Load() + r.reserved
	if t-r.headSeen > r.mask {
		if r.headSeen = r.head.Load(); t-r.headSeen > r.mask {
			return nil
		}
	}
	r.reserved++
	return &r.buf[t&r.mask]
}

// Commit publishes every outstanding reservation with a single index
// store. Producer only.
func (r *Ring[T]) Commit() {
	if r.reserved == 0 {
		return
	}
	r.tail.Store(r.tail.Load() + r.reserved)
	r.reserved = 0
	r.notify()
}

// PopBatch dequeues up to len(dst) elements into dst, consuming them
// with a single index store, and returns the count. Consumer only.
func (r *Ring[T]) PopBatch(dst []T) int {
	h := r.head.Load()
	n := uint64(len(dst))
	if avail := r.tailSeen - h; n > avail {
		r.tailSeen = r.tail.Load()
		if avail = r.tailSeen - h; n > avail {
			n = avail
		}
	}
	for i := uint64(0); i < n; i++ {
		dst[i] = r.buf[(h+i)&r.mask]
	}
	if n > 0 {
		r.head.Store(h + n)
	}
	return int(n)
}

// Peek returns the oldest elements ready for the consumer, in place: at
// most max of them, and never past the end of the buffer, so a run that
// wraps comes back over two Peeks. The slots stay the consumer's — the
// producer cannot overwrite them — until Release hands them back, so a
// consumer that reads in place pays no copy, only the capacity it holds.
// Consumer only.
func (r *Ring[T]) Peek(max int) []T {
	h := r.head.Load()
	n := uint64(max)
	if avail := r.tailSeen - h; n > avail {
		r.tailSeen = r.tail.Load()
		if avail = r.tailSeen - h; n > avail {
			n = avail
		}
	}
	i := h & r.mask
	if end := r.mask + 1 - i; n > end {
		n = end
	}
	return r.buf[i : i+n : i+n]
}

// Release hands the first n elements of the last Peek back to the
// producer with a single index store. Consumer only.
func (r *Ring[T]) Release(n int) {
	if n > 0 {
		r.head.Store(r.head.Load() + uint64(n))
	}
}

// popSpins is how many empty polls the consumer tolerates before
// parking; every eighth poll yields the processor so a same-core
// producer can run (the single-GOMAXPROCS case).
const popSpins = 64

// Wait blocks the consumer until the ring is plausibly non-empty or
// closed. It busy-polls briefly before parking but leaves the popping
// to the caller — the shape a consumer needs when it multiplexes this
// ring with other work (e.g. a partition handoff) and must
// re-check that work after every wakeup. The spin polls the wake token
// too: a token a producer poke or Close left behind returns Wait at
// once, on-CPU, and is consumed there, so it cannot turn the next park
// into a spurious wakeup. Spurious returns are allowed. Consumer only.
func (r *Ring[T]) Wait() {
	if !r.spin() {
		r.park()
	}
}

// ready reports whether the consumer has work: an element or the close
// flag.
func (r *Ring[T]) ready() bool { return r.Len() > 0 || r.closed.Load() }

// spin is Wait's bounded busy-poll. It reports true as soon as the ring
// is ready or a wake token is pending (taking the token), and false
// after popSpins empty polls.
func (r *Ring[T]) spin() bool {
	for i := 0; i < popSpins; i++ {
		if r.ready() {
			return true
		}
		select {
		case <-r.wake:
			return true
		default:
		}
		if i%8 == 7 {
			runtime.Gosched()
		}
	}
	return false
}

// park raises the parked flag, re-checks (the producer may have
// published between the last poll and the flag), then blocks on the
// wake channel until a producer poke or Close.
func (r *Ring[T]) park() {
	r.parked.Store(true)
	if !r.ready() {
		<-r.wake
	}
	r.parked.Store(false)
}

// notify pokes a parked consumer. The flag check keeps the cost of the
// un-parked common case to one uncontended atomic load.
func (r *Ring[T]) notify() {
	if r.parked.Load() && r.parked.CompareAndSwap(true, false) {
		select {
		case r.wake <- struct{}{}:
		default:
		}
	}
}

// Close marks the ring closed and wakes a parked consumer. The consumer
// may keep popping until the ring is drained; pushes after Close are the
// producer's bug (they still succeed — Close is a signal, not a fence).
func (r *Ring[T]) Close() {
	r.closed.Store(true)
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// Closed reports whether Close was called.
func (r *Ring[T]) Closed() bool { return r.closed.Load() }
