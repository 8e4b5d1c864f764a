// Shard-owned rule application: flow_mods travel to their owning shard
// as in-band control events on its control ring and are applied against
// that shard's own table partition — the serving path never takes a
// writer lock, and a mutation touches only the owning partition. On a
// running wall-clock engine the partition, with the consumer side of the
// control ring, belongs to whoever holds the shard's partMu: the shard
// goroutine while it runs, and while it waits for ingress the Apply
// caller, which drains the ring itself — no goroutine hop. Mutations
// that wildcard in_port broadcast one event per shard, and Apply returns
// once every copy is applied. In manual mode there is no shard goroutine
// and no control ring: the harness owns the partitions and Apply mutates
// them inline.
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

// applyAck collects per-shard completions of one Apply. Under mu,
// shards record the first application error and decrement pending, and
// the last one closes done if a waiter made it: done is made only by a
// waiter that parks, so the common round trip, answered within the
// spin, allocates no channel.
type applyAck struct {
	pending atomic.Int32
	mu      sync.Mutex
	err     error
	done    chan struct{}
}

func newApplyAck(n int) *applyAck {
	a := &applyAck{}
	a.pending.Store(int32(n))
	return a
}

func (a *applyAck) complete(err error) {
	a.mu.Lock()
	if err != nil && a.err == nil {
		a.err = err
	}
	if a.pending.Add(-1) == 0 && a.done != nil {
		close(a.done)
	}
	a.mu.Unlock()
}

// ackSpins is how many times Apply polls its ack before it arms the
// timer and parks; every eighth poll yields the processor, like
// spsc.Ring.Wait's spin, so a shard sharing the caller's core can run.
const ackSpins = 64

// spin polls pending for ackSpins polls and reports whether every
// target shard acknowledged. Each poll first offers to drain every
// target: a shard waiting for ingress has let go of its partition, so
// the first poll applies the mod on the caller; a busy shard drains at
// its next batch top.
func (a *applyAck) spin(targets []*Shard) bool {
	for i := 0; i < ackSpins; i++ {
		for _, s := range targets {
			s.tryDrain()
		}
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
// wildcarded) and applied in ring order by whoever holds each target
// partition; Apply blocks until every target shard applied its copy and
// returns the first application error (e.g. flowtable.ErrTableFull).
// Both the enqueue and the wait are bounded by Config.ApplyTimeout: a
// full control ring returns ErrApplyBackpressure, a stalled shard
// ErrApplyTimeout. On either error a broadcast may be partially
// applied; flow_mod application is idempotent, so the caller retries
// the whole mod. The wait is spin-then-park: each poll of the short
// bounded spin drains every target shard whose partition is free (a
// shard waiting for ingress is not woken — the caller applies its mod),
// and the timer is armed only if a busy shard has not answered by then.
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
		if ack.spin(e.shards[first : last+1]) {
			return ack.result()
		}
		ack.mu.Lock()
		if ack.pending.Load() == 0 {
			ack.mu.Unlock()
			return ack.result()
		}
		done := make(chan struct{})
		ack.done = done
		ack.mu.Unlock()
		timer := time.NewTimer(time.Until(deadline))
		defer timer.Stop()
		select {
		case <-done:
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
// deadline. ctrlMu serializes control-plane producers (the ring itself
// is SPSC); it is never taken on the packet path. It wakes nobody: the
// caller drains the ring itself while the shard waits (Apply's spin).
func (s *Shard) pushCtrl(ev ctrlEvent, deadline time.Time) error {
	s.ctrlMu.Lock()
	defer s.ctrlMu.Unlock()
	for !s.ctrl.Push(ev) {
		if time.Now().After(deadline) {
			return ErrApplyBackpressure
		}
		// The ring is full: drain it here if the partition is free, else
		// yield so its busy holder gets to its next batch top.
		s.tryDrain()
		runtime.Gosched()
		time.Sleep(5 * time.Microsecond)
	}
	return nil
}

// tryDrain drains the control ring on the caller if the partition is
// free — its shard goroutine waits for ingress or has exited.
func (s *Shard) tryDrain() {
	if s.partMu.TryLock() {
		s.drainCtrl(time.Now())
		s.release()
	}
}

// release hands the partition back, then re-checks the control ring:
// an event pushed while the partition was held saw its pusher's TryLock
// fail, so every holder, on letting go, drains what is queued whenever
// it can take the partition again. Go's atomics are sequentially
// consistent: a TryLock that fails after the push is ordered before
// this Unlock, so the ctrl.Len below sees the push.
func (s *Shard) release() {
	s.partMu.Unlock()
	for s.ctrl.Len() > 0 && s.partMu.TryLock() {
		s.drainCtrl(time.Now())
		s.partMu.Unlock()
	}
}

// drainCtrl applies every queued control event against the shard's
// partition. On a running wall-clock engine it runs under partMu — on
// the shard goroutine at the top of each batch iteration and on
// shutdown, or on an Apply caller while the shard waits; otherwise on a
// quiescent harness driving the shard body directly (the churn
// microbenchmark).
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
