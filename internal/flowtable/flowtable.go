// Package flowtable implements an OpenFlow 1.0 flow table: priority
// matching with wildcards, per-rule counters, idle and hard timeouts, a
// capacity bound (TCAM size), and a lookup-cost model for software flow
// tables (the paper's hardware switch runs OpenWRT/Pantou, whose software
// table makes lookups grow more expensive as rules accumulate — the cause
// of Figure 11's slow decline beyond 200 PPS).
package flowtable

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"floodguard/internal/netpkt"
	"floodguard/internal/openflow"
	"floodguard/internal/telemetry"
)

// ErrTableFull reports a flow-mod rejected for lack of table capacity.
var ErrTableFull = errors.New("flowtable: table full")

// Entry is one installed flow rule with its counters.
type Entry struct {
	Match       openflow.Match
	Priority    uint16
	NotifyRem   bool // beside Priority: fills its padding, so the chain link below costs no size class
	Actions     []openflow.Action
	Cookie      uint64
	IdleTimeout time.Duration
	HardTimeout time.Duration

	Installed   time.Time
	LastMatched time.Time
	Packets     uint64
	Bytes       uint64

	seq  uint64 // insertion order, breaks priority ties (first wins)
	next *Entry // classifier chain: the next rule under the same subtable key
}

// String renders the rule in ovs-ofctl style.
func (e *Entry) String() string {
	return fmt.Sprintf("priority=%d,%s actions=%s",
		e.Priority, e.Match.String(), openflow.ActionsString(e.Actions))
}

// Removed couples an evicted entry with the reason, for FlowRemoved
// notifications.
type Removed struct {
	Entry  *Entry
	Reason openflow.FlowRemovedReason
}

// Table is a single OpenFlow 1.0 flow table. Every Lookup goes to the
// classifier: at one hash probe per wildcard shape a miss costs less
// than an exact-match cache probe in front of it did, and a spoofed
// flood — every packet a fresh tuple — can only ever miss such a cache
// (DESIGN.md §17).
//
// Every Lookup increments exactly one of matched/missed, so Lookups is
// a derived sum that a metrics scrape can read race-free from another
// goroutine.
type Table struct {
	capacity int
	entries  []*Entry // sorted by (priority desc, seq asc)
	nextSeq  uint64
	cls      classifier // the same rules, indexed (see classifier.go)

	matched   telemetry.Counter // lookups that found a rule
	missed    telemetry.Counter // table misses
	ruleCount telemetry.Gauge   // mirrors len(entries) for scrape goroutines
}

// Stats is a counter snapshot of the table.
type Stats struct {
	Lookups uint64
	Matched uint64
}

// New returns a table bounded to capacity rules (0 = unbounded).
func New(capacity int) *Table {
	return &Table{capacity: capacity}
}

// Stats returns the counter snapshot. It reads only atomics, so it is
// safe from any goroutine.
func (t *Table) Stats() Stats {
	m := t.matched.Value()
	return Stats{Lookups: m + t.missed.Value(), Matched: m}
}

// Register attaches the table's counters to reg under the given metric
// name prefix (e.g. "fg_flowtable").
func (t *Table) Register(reg *telemetry.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.CounterFunc(prefix+"_lookups_total", "Flow table lookups.", t.Lookups)
	reg.RegisterCounter(prefix+"_matched_total", "Lookups that found a rule.", &t.matched)
	reg.GaugeFunc(prefix+"_rules",
		"Installed flow rules (updated on mutation).", func() float64 {
			return float64(t.ruleCount.Value())
		})
}

// noteMutation refreshes the rule-count mirror after a rule-set change.
func (t *Table) noteMutation() { t.ruleCount.Set(int64(len(t.entries))) }

// Len returns the number of installed rules.
func (t *Table) Len() int { return len(t.entries) }

// RuleCount returns the installed rule count from the gauge mirrored at
// mutation points — unlike Len, safe to call from any goroutine.
func (t *Table) RuleCount() int { return int(t.ruleCount.Value()) }

// Lookups returns the total number of Lookup calls.
func (t *Table) Lookups() uint64 { return t.matched.Value() + t.missed.Value() }

// Matched returns the number of Lookup calls that found a rule.
func (t *Table) Matched() uint64 { return t.matched.Value() }

// Entries returns a snapshot of the rules in match order.
func (t *Table) Entries() []*Entry {
	out := make([]*Entry, len(t.entries))
	copy(out, t.entries)
	return out
}

// Apply executes a flow_mod against the table. It serves the two
// commands the controller and FloodGuard send: ADD, which returns
// ErrTableFull when at capacity and the rule is not an overwrite (an
// overwrite is how a rule's actions change), and DELETE_STRICT. MODIFY,
// MODIFY_STRICT and non-strict DELETE are refused as unsupported.
func (t *Table) Apply(m openflow.FlowMod, now time.Time) ([]Removed, error) {
	switch m.Command {
	case openflow.FlowAdd:
		return nil, t.add(m, now)
	case openflow.FlowDeleteStrict:
		return t.delete(m), nil
	default:
		return nil, fmt.Errorf("flowtable: unsupported command %v", m.Command)
	}
}

func (t *Table) add(m openflow.FlowMod, now time.Time) error {
	e := &Entry{
		Match:       m.Match,
		Priority:    m.Priority,
		Cookie:      m.Cookie,
		IdleTimeout: time.Duration(m.IdleTimeout) * time.Second,
		HardTimeout: time.Duration(m.HardTimeout) * time.Second,
		NotifyRem:   m.Flags&openflow.FlagSendFlowRem != 0,
		Actions:     m.Actions,
		Installed:   now,
		LastMatched: now,
		seq:         t.nextSeq,
	}
	// An add with identical match and priority overwrites: the new rule
	// takes the old one's seq, hence its place in every ordering.
	if old := t.cls.get(&e.Match, e.Priority); old != nil {
		e.seq = old.seq
		t.entries[t.position(old)] = e
		t.cls.remove(old)
		t.cls.insert(e)
		t.noteMutation()
		return nil
	}
	if t.capacity > 0 && len(t.entries) >= t.capacity {
		return ErrTableFull
	}
	t.nextSeq++
	t.entries = slices.Insert(t.entries, t.position(e), e)
	t.cls.insert(e)
	t.noteMutation()
	return nil
}

// position is e's index in the match-ordered rule list — where it is if
// installed, where it belongs if not ((priority, seq) is unique).
func (t *Table) position(e *Entry) int {
	return sort.Search(len(t.entries), func(i int) bool { return !t.entries[i].before(e) })
}

// delete removes the rule with m's exact match and priority, if its
// actions output to m.OutPort (PortNone matches any rule).
func (t *Table) delete(m openflow.FlowMod) []Removed {
	e := t.cls.get(&m.Match, m.Priority)
	if e == nil || (m.OutPort != openflow.PortNone && !outputsTo(e.Actions, m.OutPort)) {
		return nil
	}
	i := t.position(e)
	t.entries = slices.Delete(t.entries, i, i+1)
	t.cls.remove(e)
	t.noteMutation()
	return []Removed{{Entry: e, Reason: openflow.RemovedDelete}}
}

func outputsTo(actions []openflow.Action, port uint16) bool {
	for _, a := range actions {
		if out, ok := a.(openflow.ActionOutput); ok && out.Port == port {
			return true
		}
	}
	return false
}

// Lookup finds the highest-priority rule matching p on inPort, updating
// counters. It returns nil on a table miss. Nothing is remembered
// between lookups, so an add or delete is visible to the very next one.
func (t *Table) Lookup(p *netpkt.Packet, inPort uint16, now time.Time, frameLen int) *Entry {
	e := t.cls.find(p, inPort)
	if e == nil {
		t.missed.Inc()
		return nil
	}
	t.matched.Inc()
	e.Packets++
	e.Bytes += uint64(frameLen)
	e.LastMatched = now
	return e
}

// Peek is Lookup without counter updates (used by the cache-resident-rules
// design option to test coverage without consuming the rule).
func (t *Table) Peek(p *netpkt.Packet, inPort uint16) *Entry {
	return t.cls.find(p, inPort)
}

// Expire removes idle- and hard-timed-out rules as of now.
func (t *Table) Expire(now time.Time) []Removed {
	var removed []Removed
	t.entries = slices.DeleteFunc(t.entries, func(e *Entry) bool {
		switch {
		case e.HardTimeout > 0 && now.Sub(e.Installed) >= e.HardTimeout:
			removed = append(removed, Removed{Entry: e, Reason: openflow.RemovedHardTimeout})
		case e.IdleTimeout > 0 && now.Sub(e.LastMatched) >= e.IdleTimeout:
			removed = append(removed, Removed{Entry: e, Reason: openflow.RemovedIdleTimeout})
		default:
			return false
		}
		return true
	})
	for _, r := range removed {
		t.cls.remove(r.Entry)
	}
	t.noteMutation()
	return removed
}

// SoftwareLookupCost models the per-packet lookup latency of a software
// flow table holding n rules: a fixed base plus a linear scan component.
// Hardware TCAM lookup is constant-time; pass perRule = 0 for it.
func SoftwareLookupCost(n int, base, perRule time.Duration) time.Duration {
	return base + time.Duration(n)*perRule
}
