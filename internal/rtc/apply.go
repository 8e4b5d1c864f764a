// Shard-owned rule application: flow_mods travel to their owning shard
// as in-band control events and are applied by the shard goroutine
// against its own table partition — the serving path never takes a
// writer lock, and a mutation touches only the owning partition.
// Mutations that wildcard in_port broadcast one event per shard, and
// Apply returns once every copy is applied. In manual mode there is no
// shard goroutine and no control ring: the harness owns the partitions
// and Apply mutates them inline.
package rtc

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"floodguard/internal/openflow"
)

// ErrApplyBackpressure reports that a shard's control ring stayed full
// for the whole ApplyTimeout — the control plane is pushing rules
// faster than the shard can absorb them between packet batches.
var ErrApplyBackpressure = errors.New("rtc: apply backpressure: shard control ring full")

// ErrApplyTimeout reports that the control event was enqueued but no
// acknowledgement arrived within ApplyTimeout — the shard is stalled or
// the engine stopped while the apply was in flight.
var ErrApplyTimeout = errors.New("rtc: apply timed out waiting for shard acknowledgement")

// ctrlEvent is one in-band rule mutation bound for a shard: the
// flow_mod to apply against the shard's partition plus an optional ack
// for synchronous callers.
type ctrlEvent struct {
	mod openflow.FlowMod
	ack *applyAck
}

// applyAck collects per-shard completions of one Apply. Shards record
// the first application error and decrement pending; the last one
// closes done. The pending counter's atomic RMW chain orders every
// shard's error write before the waiter's read.
type applyAck struct {
	pending atomic.Int32
	mu      sync.Mutex
	err     error
	done    chan struct{}
}

func newApplyAck(n int) *applyAck {
	a := &applyAck{done: make(chan struct{})}
	a.pending.Store(int32(n))
	return a
}

func (a *applyAck) complete(err error) {
	if err != nil {
		a.mu.Lock()
		if a.err == nil {
			a.err = err
		}
		a.mu.Unlock()
	}
	if a.pending.Add(-1) == 0 {
		close(a.done)
	}
}

// ackSpins is how many times Apply polls its ack before it arms the
// timer and parks; every eighth poll yields the processor, like
// spsc.Ring.Wait's spin, so a shard sharing the caller's core can run.
const ackSpins = 64

// spin polls pending for ackSpins polls and reports whether every
// target shard acknowledged. A shard spinning in Wait picks a Wake up
// within a poll or two and applies one flow_mod in microseconds, so the
// common round trip completes here and neither side parks.
func (a *applyAck) spin() bool {
	for i := 0; i < ackSpins; i++ {
		if a.pending.Load() == 0 {
			return true
		}
		if i%8 == 7 {
			runtime.Gosched()
		}
	}
	return a.pending.Load() == 0
}

// result returns the first application error any shard recorded. Call
// it only once pending reached zero.
func (a *applyAck) result() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// Apply installs a flow_mod. The mod is routed to its owning shard's
// control ring (in_port pinned) or broadcast to every shard (in_port
// wildcarded) and applied in-band by the shard goroutines; Apply blocks
// until every target shard applied its copy and returns the first
// application error (e.g. flowtable.ErrTableFull). Both the enqueue and
// the wait are bounded by Config.ApplyTimeout: a full control ring
// returns ErrApplyBackpressure, a stalled shard ErrApplyTimeout. On
// either error a broadcast may be partially applied; flow_mod
// application is idempotent, so the caller retries the whole mod. The
// wait is spin-then-park: Apply polls the ack for a short bounded spin
// and arms the timer only if the shards have not answered by then.
//
// On a quiescent engine (before Start, after Stop) and in manual mode
// the mod is applied inline — the caller is the only goroutine touching
// the partitions then, so it is visible to the very next packet. Do not
// call Apply concurrently with Start or Stop.
func (e *Engine) Apply(m openflow.FlowMod) error {
	if e.cfg.Manual || !e.started.Load() || e.stopped.Load() {
		_, err := e.parts.Apply(m, time.Now())
		return err
	}
	first, last := e.applyTargets(&m.Match)
	ack := newApplyAck(last - first + 1)
	deadline := time.Now().Add(e.cfg.ApplyTimeout)
	var pushErr error
	for i := first; i <= last; i++ {
		if err := e.shards[i].pushCtrl(ctrlEvent{mod: m, ack: ack}, deadline); err != nil {
			// Count the failed enqueue as completed so done still closes.
			ack.complete(err)
			if pushErr == nil {
				pushErr = err
			}
		}
	}
	// The ack is consulted before the clock: a failed enqueue — pushCtrl
	// gives up exactly at the deadline — reports its own error, not a
	// timeout, and only a wait that outlasts the spin pays for a timer.
	if ack.pending.Load() > 0 {
		if pushErr != nil {
			return pushErr
		}
		if ack.spin() {
			return ack.result()
		}
		timer := time.NewTimer(time.Until(deadline))
		defer timer.Stop()
		select {
		case <-ack.done:
		case <-timer.C:
			if ack.pending.Load() > 0 {
				return ErrApplyTimeout
			}
		}
	}
	if err := ack.result(); err != nil {
		return err
	}
	return pushErr
}

// applyTargets returns the inclusive shard range a mutation routes to.
func (e *Engine) applyTargets(m *openflow.Match) (first, last int) {
	if i, owned := e.parts.Owner(m); owned {
		return i, i
	}
	return 0, len(e.shards) - 1
}

// pushCtrl enqueues a control event on the shard's ring, retrying until
// deadline, and wakes the shard in case it is parked on an idle ingress
// ring. ctrlMu serializes control-plane producers (the ring itself is
// SPSC); it is never taken on the packet path.
func (s *Shard) pushCtrl(ev ctrlEvent, deadline time.Time) error {
	s.ctrlMu.Lock()
	defer s.ctrlMu.Unlock()
	for !s.ctrl.Push(ev) {
		if time.Now().After(deadline) {
			return ErrApplyBackpressure
		}
		// The ring is full because the shard is busy or parked: poke it
		// and yield so it gets a chance to drain.
		s.in.Wake()
		runtime.Gosched()
		time.Sleep(5 * time.Microsecond)
	}
	s.in.Wake()
	return nil
}

// drainCtrl applies every queued control event against the shard's
// partition. It runs on the shard goroutine — at the top of each batch
// iteration and on shutdown — or on a quiescent harness driving the
// shard body directly (the churn microbenchmark).
func (s *Shard) drainCtrl(now time.Time) {
	for {
		ev, ok := s.ctrl.Pop()
		if !ok {
			return
		}
		_, err := s.part.Apply(ev.mod, now)
		s.applied.Add(1)
		if err != nil {
			s.applyErrs.Add(1)
		}
		if ev.ack != nil {
			ev.ack.complete(err)
		}
	}
}
