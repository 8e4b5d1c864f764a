// Shard-partitioned flow table for the run-to-completion engine: the
// rule list is split by the same port%N ownership the rtc shards use for
// packets, so each partition is a plain single-goroutine Table owned
// outright by one shard. Lookup and rule application on a partition take
// zero locks, and rule churn on one port touches no other shard's
// partition.
//
// Soundness of single-partition lookup: a packet arriving on port p can
// only match a rule whose in_port is either wildcarded or exactly p.
// Port-pinned rules live in partition p%N, and in_port-wildcarded rules
// are broadcast into every partition, so partition p%N sees every rule
// that could match. Rules pinned to a *different* port that happen to
// share the partition fail the in_port comparison and cannot shadow the
// winner. Relative rule order is preserved per partition (each Apply
// lands in partition-application order), so priority ties break exactly
// as they would in one global table.
//
// Routing soundness for mutations: a rule lives in the partitions its
// in_port selects, and an add or strict delete addresses rules with its
// exact match, so one pinned to in_port=p reaches partition p%N alone
// and one with in_port wildcarded is broadcast to every partition.
//
// Divergences from one global table, by construction: a broadcast rule
// is physically present in every partition (RuleCount counts the
// copies; a broadcast delete reports one Removed per partition), and a
// capacity bound is enforced per partition rather than globally.
package flowtable

import (
	"time"

	"floodguard/internal/openflow"
	"floodguard/internal/telemetry"
)

// Sharded is a flow table partitioned by in_port%N shard ownership.
// The aggregate methods (RuleCount, Register) read only atomics
// and are safe from any goroutine; everything touching a partition's
// rule list (Apply, Lookup via Partition) is subject to that partition's
// single-owner contract.
type Sharded struct {
	parts []*Table
}

// NewSharded returns n partitions bounded to capacity rules in
// aggregate (0 = unbounded; the bound is split evenly, rounded up, per
// partition).
func NewSharded(n, capacity int) *Sharded {
	if n <= 0 {
		n = 1
	}
	per := 0
	if capacity > 0 {
		per = (capacity + n - 1) / n
	}
	s := &Sharded{parts: make([]*Table, n)}
	for i := range s.parts {
		s.parts[i] = New(per)
	}
	return s
}

// Partition returns partition i. Single-owner: only the owning shard
// goroutine (or a quiescent harness) may call its mutating methods.
func (s *Sharded) Partition(i int) *Table { return s.parts[i] }

// Owner routes a flow_mod match: (partition, true) when the match pins
// in_port to one port, (0, false) when in_port is wildcarded and the
// mutation must broadcast to every partition.
func (s *Sharded) Owner(m *openflow.Match) (int, bool) {
	if m.Wildcards&openflow.WildInPort != 0 {
		return 0, false
	}
	return int(m.InPort) % len(s.parts), true
}

// Apply executes a flow_mod against its owning partition, or against
// every partition when the match wildcards in_port. The caller must be
// the sole goroutine touching the affected partitions (setup phase, a
// test, or the rtc control-ring path where each partition's owner shard
// applies its own copy). A broadcast returns the concatenated Removed
// sets and the first error.
func (s *Sharded) Apply(m openflow.FlowMod, now time.Time) ([]Removed, error) {
	if i, owned := s.Owner(&m.Match); owned {
		return s.parts[i].Apply(m, now)
	}
	var removed []Removed
	var firstErr error
	for _, t := range s.parts {
		r, err := t.Apply(m, now)
		removed = append(removed, r...)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return removed, firstErr
}

// RuleCount sums the partitions' mutation-point rule-count mirrors —
// safe from any goroutine.
func (s *Sharded) RuleCount() int {
	n := 0
	for _, t := range s.parts {
		n += t.RuleCount()
	}
	return n
}

// Register attaches aggregate counters to reg under the given prefix.
// Every series is a pull-through sum over the partitions' atomics.
func (s *Sharded) Register(reg *telemetry.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.GaugeFunc(prefix+"_rules", "Installed flow rules summed over partitions (broadcast rules count once per partition).", func() float64 {
		return float64(s.RuleCount())
	})
	reg.GaugeFunc(prefix+"_partitions", "Flow table partition count.", func() float64 {
		return float64(len(s.parts))
	})
}
