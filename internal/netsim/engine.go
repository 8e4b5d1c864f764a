// Package netsim provides the discrete-event substrate the experiments run
// on: a virtual clock with a deterministic event queue, links with
// bandwidth and latency, periodic tasks, and measurement helpers.
//
// Determinism contract: events fire in (time, schedule-order) order, so a
// scenario driven from a seeded RNG reproduces exactly.
package netsim

import "time"

// Event is a scheduled callback. Cancel prevents a pending event from
// firing.
type Event struct {
	at   time.Time
	key  int64 // at, as nanoseconds since Epoch: what the queue orders by
	seq  uint64
	fn   func()
	dead bool
}

// Cancel prevents the event from firing. Safe to call multiple times and
// after the event fired.
func (ev *Event) Cancel() { ev.dead = true }

// before is the determinism contract: time, then schedule order.
func (ev *Event) before(o *Event) bool {
	if ev.key != o.key {
		return ev.key < o.key
	}
	return ev.seq < o.seq
}

// eventHeap is a binary min-heap of events under before. It is written
// out rather than built on container/heap because every simulated packet
// is a handful of pushes and pops: through the interface each of those
// boxes the event and calls Less and Swap indirectly.
type eventHeap []*Event

func (h *eventHeap) push(ev *Event) {
	q := append(*h, ev)
	*h = q
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
}

func (h *eventHeap) pop() *Event {
	q := *h
	top, last := q[0], q[len(q)-1]
	q[len(q)-1] = nil
	q = q[:len(q)-1]
	*h = q
	if len(q) == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= len(q) {
			break
		}
		if r := child + 1; r < len(q) && q[r].before(q[child]) {
			child = r
		}
		if !q[child].before(last) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = last
	return top
}

// Epoch is the conventional start instant of every simulation. Using a
// fixed epoch keeps logs and expectations stable across runs.
var Epoch = time.Date(2015, 6, 22, 0, 0, 0, 0, time.UTC)

// Engine is a single-threaded discrete-event simulator.
type Engine struct {
	now time.Time
	pq  eventHeap
	seq uint64
}

// NewEngine returns an engine whose clock starts at Epoch.
func NewEngine() *Engine { return &Engine{now: Epoch} }

// Now returns the current virtual time.
func (e *Engine) Now() time.Time { return e.now }

// Elapsed returns the virtual time since Epoch.
func (e *Engine) Elapsed() time.Duration { return e.now.Sub(Epoch) }

// Schedule runs fn after d of virtual time (d < 0 is clamped to 0).
func (e *Engine) Schedule(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// At runs fn at instant t (clamped to now if in the past).
func (e *Engine) At(t time.Time, fn func()) *Event {
	if t.Before(e.now) {
		t = e.now
	}
	ev := &Event{fn: fn}
	e.push(ev, t)
	return ev
}

// push queues ev at instant t behind everything already scheduled for t.
func (e *Engine) push(ev *Event, t time.Time) {
	ev.at, ev.key, ev.seq = t, int64(t.Sub(Epoch)), e.seq
	e.seq++
	e.pq.push(ev)
}

// Step fires the earliest pending event. It returns false when the queue
// is empty.
func (e *Engine) Step() bool {
	for len(e.pq) > 0 {
		ev := e.pq.pop()
		if ev.dead {
			continue
		}
		e.now = ev.at
		ev.fn()
		return true
	}
	return false
}

// RunUntil fires events until the queue is exhausted or the next event is
// after t; the clock is then advanced to t. It returns the number of
// events fired.
func (e *Engine) RunUntil(t time.Time) int {
	fired := 0
	for len(e.pq) > 0 {
		// Skip over cancelled heads without advancing time.
		head := e.pq[0]
		if head.dead {
			e.pq.pop()
			continue
		}
		if head.at.After(t) {
			break
		}
		e.Step()
		fired++
	}
	if e.now.Before(t) {
		e.now = t
	}
	return fired
}

// RunFor advances the clock by d, firing due events.
func (e *Engine) RunFor(d time.Duration) int { return e.RunUntil(e.now.Add(d)) }

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

// Ticker invokes fn every interval until cancelled.
//
// It owns its event: every firing re-pushes the same Event with a fresh
// schedule sequence, so a running ticker allocates nothing. That is safe
// because the event is re-pushed only after Step popped it (arm runs
// from fire, or once from NewTicker), so it is never in the queue twice.
type Ticker struct {
	eng      *Engine
	interval time.Duration
	fn       func()
	ev       Event
	stopped  bool
}

// NewTicker starts a periodic task; the first firing is one interval from
// now. It panics if interval is not positive, as time.NewTicker does: a
// zero interval would re-arm at the current instant forever.
func (e *Engine) NewTicker(interval time.Duration, fn func()) *Ticker {
	if interval <= 0 {
		panic("netsim: non-positive interval for NewTicker")
	}
	t := &Ticker{eng: e, interval: interval, fn: fn}
	t.ev.fn = t.fire
	t.arm()
	return t
}

func (t *Ticker) arm() { t.eng.push(&t.ev, t.eng.now.Add(t.interval)) }

func (t *Ticker) fire() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.arm()
	}
}

// Stop cancels the ticker.
func (t *Ticker) Stop() {
	t.stopped = true
	t.ev.Cancel()
}
