// Shard-owned rule application: a flow_mod is applied against its
// owning shard's table partition under that shard's partMu, which is
// the only way anything touches a partition (DESIGN.md §15). The
// serving path never takes a lock per packet, and a mutation touches
// only the partitions its in_port selects. A running wall-clock shard
// holds partMu from one wait for ingress to the next and hands it over
// at every batch top where an Apply caller waits (handoff); while it
// waits for ingress, and in every state without a shard goroutine
// (manual mode, before Start, after Stop), partMu is free and the caller
// takes it at once. Mutations that wildcard in_port are applied to
// every shard in turn.
package rtc

import (
	"runtime"
	"time"

	"floodguard/internal/openflow"
)

// Apply installs a flow_mod against its owning shard's partition
// (in_port pinned) or against every partition in shard order (in_port
// wildcarded), and returns the first application error (e.g.
// flowtable.ErrTableFull) once every target applied its copy. On a
// running wall-clock engine a busy target shard serves the caller at its
// next batch top, so the wait is at most one ingress batch per target.
// A failed broadcast may be partially applied; flow_mod application is
// idempotent, so the caller retries the whole mod.
//
// Against the wall clock Apply is safe from any goroutine at any time,
// concurrent callers included; in manual mode the harness owns the
// shards, so call it on the harness's goroutine, between InjectItems.
func (e *Engine) Apply(m openflow.FlowMod) error {
	first, last := e.applyTargets(&m.Match)
	var firstErr error
	for _, s := range e.shards[first : last+1] {
		if err := s.apply(m); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// applyTargets returns the inclusive shard range a mutation routes to.
func (e *Engine) applyTargets(m *openflow.Match) (first, last int) {
	if i, owned := e.parts.Owner(m); owned {
		return i, i
	}
	return 0, len(e.shards) - 1
}

// apply applies one copy of a mod against the shard's partition. It
// counts itself in waiters before it asks for partMu, so a busy shard
// holding the partition sees it at its next batch top, and uncounts
// itself once it holds the partition.
func (s *Shard) apply(m openflow.FlowMod) error {
	s.waiters.Add(1)
	s.partMu.Lock()
	s.waiters.Add(-1)
	_, err := s.part.Apply(m, time.Now())
	if err != nil {
		s.applyErrs.Add(1)
	}
	s.applied.Add(1)
	s.partMu.Unlock()
	return err
}

// handoff is the shard goroutine's batch-top step, run holding partMu:
// if Apply callers wait, it lets go of the partition until as many mods
// as there were waiters at that moment have been applied, then takes it
// back. Callers arriving later wait for the next batch top, so a shard
// under back-to-back Applies still serves a batch between handoffs.
func (s *Shard) handoff() {
	n := s.waiters.Load()
	if n == 0 {
		return
	}
	want := s.applied.Load() + uint64(n)
	s.partMu.Unlock()
	for s.applied.Load() < want {
		runtime.Gosched()
	}
	s.partMu.Lock()
}
