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
	"sync/atomic"
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

	// lastNanos mirrors LastMatched for concurrent lookups (Concurrent
	// hits under a shared read lock update it atomically instead of
	// racing on the time.Time); effectiveLastMatched folds the two.
	lastNanos atomic.Int64

	// actionsShared mirrors Actions for lock-free readers: modify() swaps
	// the plain field in place under the table's exclusive lock, so a
	// cached winner pointer served from a shard cache must read the action
	// list through this atomic instead.
	actionsShared atomic.Pointer[[]openflow.Action]

	seq  uint64 // insertion order, breaks priority ties (first wins)
	next *Entry // classifier chain: the next rule under the same subtable key
}

// SharedActions returns the entry's action list without the table lock.
// It is the only safe way to read actions from a cached winner pointer
// on the concurrent hit path; a flow_mod modify is observed atomically.
func (e *Entry) SharedActions() []openflow.Action {
	if p := e.actionsShared.Load(); p != nil {
		return *p
	}
	return e.Actions
}

func (e *Entry) setActions(acts []openflow.Action) {
	e.Actions = acts
	e.actionsShared.Store(&acts)
}

// effectiveLastMatched is the later of the single-threaded LastMatched
// stamp and the atomic mirror written by concurrent lookups.
func (e *Entry) effectiveLastMatched() time.Time {
	last := e.LastMatched
	if ns := e.lastNanos.Load(); ns != 0 {
		if t := time.Unix(0, ns); t.After(last) {
			last = t
		}
	}
	return last
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

// Table is a single OpenFlow 1.0 flow table.
//
// Counters are kept as three disjoint atomics — every Lookup increments
// exactly one of microHits/scanMatched/scanMissed — so the hot
// cache-hit path pays a single atomic add while
// Lookups/Matched/MicroflowMisses are derived sums that a metrics
// scrape can read race-free from another goroutine.
type Table struct {
	capacity int
	entries  []*Entry // sorted by (priority desc, seq asc)
	nextSeq  uint64
	cls      classifier // the same rules, indexed (see classifier.go)

	// micro is the OVS-style microflow exact-match cache: the winning
	// entry per exact header tuple + ingress port, consulted before the
	// classifier. Only hits are admitted: a miss costs one probe per
	// subtable, so caching it would save nothing and would let a spoofed
	// flood (every packet a fresh tuple) evict the benign working set.
	// Each cached result is stamped with the table generation it was
	// computed under; rule-set mutations advance the generation and log
	// their match scope, and a stale cached result is revalidated lazily
	// by replaying the logged mutations against its packet — only lookups
	// whose packets fall inside a mutation's scope pay a rescan, so churn
	// in one corner of the rule set no longer empties the whole cache.
	micro        map[microKey]microEntry
	microMaxSize int

	// gen counts rule-set mutations; mutLog retains the match scope of
	// the last mutLogSize of them (ring indexed by gen). A cached result
	// older than the ring's window cannot be replayed and rescans. gen
	// is atomic so shard-local caches (see MicroCache) can freshness-
	// check a cached result without taking any table lock; the ring
	// itself is written only under the caller's mutation lock.
	gen    atomic.Uint64
	mutLog [mutLogSize]openflow.Match

	microHits    telemetry.Counter // served by the microflow cache
	scanMatched  telemetry.Counter // micro miss, classifier found a rule
	scanMissed   telemetry.Counter // micro miss, table miss
	microInvals  telemetry.Counter // whole-cache resets (capacity, Clear)
	microRevals  telemetry.Counter // stale entries proven valid by replay
	microEntries telemetry.Gauge
	ruleCount    telemetry.Gauge // mirrors len(entries) for scrape goroutines
}

// mutLogSize bounds the mutation-replay ring. Beyond this many
// mutations, untouched cache entries rescan instead of replaying —
// a bounded-memory compromise, not a correctness edge.
const mutLogSize = 64

// MutLogWindow is the exported mutation-ring depth: the longest
// generation gap a cached lookup result can bridge by replaying logged
// mutations instead of rescanning the rule list.
const MutLogWindow = mutLogSize

// microEntry is one cached lookup outcome with its generation stamp.
type microEntry struct {
	e   *Entry
	gen uint64
}

// DefaultMicroflowSize bounds the microflow cache; when full it is reset
// rather than evicted entry-by-entry. Only matched tuples count against
// it, so it is the covered working set that has to outgrow the bound.
const DefaultMicroflowSize = 8192

// microKey is the exact-match identity of a lookup. It extends
// netpkt.FlowKey with the ingress port and the remaining fields a match
// may constrain (VLAN tag, TOS, ARP opcode), so two packets share a key
// only if every rule treats them identically.
type microKey struct {
	flow    netpkt.FlowKey
	inPort  uint16
	hasVLAN bool
	vlanID  uint16
	vlanPCP uint8
	nwTOS   uint8
	arpOp   uint16
}

func microKeyFor(p *netpkt.Packet, inPort uint16) microKey {
	return microKey{
		flow:    p.Key(),
		inPort:  inPort,
		hasVLAN: p.HasVLAN,
		vlanID:  p.VLANID,
		vlanPCP: p.VLANPCP,
		nwTOS:   p.NwTOS,
		arpOp:   p.ARPOp,
	}
}

// Stats is a counter snapshot of the table and its microflow cache.
type Stats struct {
	Lookups          uint64
	Matched          uint64
	MicroflowHits    uint64
	MicroflowMisses  uint64
	MicroflowEntries int
	Invalidations    uint64
	// Revalidations counts stale cached results proven still valid by
	// mutation-log replay — cache entries that whole-cache invalidation
	// would have thrown away.
	Revalidations uint64
}

// New returns a table bounded to capacity rules (0 = unbounded).
func New(capacity int) *Table {
	return &Table{capacity: capacity, microMaxSize: DefaultMicroflowSize}
}

// SetMicroflowSize rebounds the microflow cache (0 disables it). It
// resets any cached state.
func (t *Table) SetMicroflowSize(n int) {
	t.microMaxSize = n
	t.micro = nil
	t.microEntries.Set(0)
}

// Stats returns the counter snapshot. It reads only atomics, so it is
// safe from any goroutine.
func (t *Table) Stats() Stats {
	hits, sm, sx := t.microHits.Value(), t.scanMatched.Value(), t.scanMissed.Value()
	return Stats{
		Lookups:          hits + sm + sx,
		Matched:          hits + sm,
		MicroflowHits:    hits,
		MicroflowMisses:  sm + sx,
		MicroflowEntries: int(t.microEntries.Value()),
		Invalidations:    t.microInvals.Value(),
		Revalidations:    t.microRevals.Value(),
	}
}

// Register attaches the table's counters to reg under the given metric
// name prefix (e.g. "fg_flowtable"). Derived counters are pull-through
// sums over the disjoint atomics, so registration adds no hot-path cost.
func (t *Table) Register(reg *telemetry.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.CounterFunc(prefix+"_lookups_total", "Flow table lookups.", t.Lookups)
	reg.CounterFunc(prefix+"_matched_total", "Lookups that found a rule.", t.Matched)
	reg.RegisterCounter(prefix+"_microflow_hits_total",
		"Lookups served by the microflow cache.", &t.microHits)
	reg.CounterFunc(prefix+"_microflow_misses_total", "Lookups that fell through to the classifier.", func() uint64 {
		return t.scanMatched.Value() + t.scanMissed.Value()
	})
	reg.RegisterCounter(prefix+"_microflow_invalidations_total",
		"Whole-cache microflow invalidations.", &t.microInvals)
	reg.RegisterCounter(prefix+"_microflow_revalidations_total",
		"Stale microflow entries retained after mutation-log replay.", &t.microRevals)
	reg.RegisterGauge(prefix+"_microflow_entries",
		"Current microflow cache occupancy.", &t.microEntries)
	reg.GaugeFunc(prefix+"_rules",
		"Installed flow rules (updated on mutation).", func() float64 {
			return float64(t.ruleCount.Value())
		})
}

// invalidateMicro drops every cached lookup result: the fallback for
// wholesale changes (Clear, cache resize) that no per-match record can
// scope.
func (t *Table) invalidateMicro() {
	t.ruleCount.Set(int64(len(t.entries)))
	g := t.gen.Add(1)
	t.mutLog[g%mutLogSize] = openflow.MatchAll() // scope: everything
	if len(t.micro) == 0 {
		return
	}
	t.microInvals.Inc()
	clear(t.micro)
	t.microEntries.Set(0)
}

// noteMutation records a rule-set mutation scoped by its match. Cached
// lookups stay put: a stale one is checked against the logged matches on
// its next hit, and only packets inside a mutation's scope rescan. By
// Covers transitivity the match is a sound scope: a packet whose cached
// result a deletion could change must match the deleted rule, hence the
// delete's match; a packet an add could change must match the new rule.
func (t *Table) noteMutation(m *openflow.Match) {
	t.ruleCount.Set(int64(len(t.entries)))
	g := t.gen.Add(1)
	t.mutLog[g%mutLogSize] = *m
}

// Gen returns the current mutation generation. It is an atomic read, so
// shard-local caches can stamp and freshness-check results without any
// table lock.
func (t *Table) Gen() uint64 { return t.gen.Load() }

// MutationsSince copies the match scopes of the mutations in
// (sinceGen, Gen()] into dst, oldest first. It returns the count, the
// generation the snapshot is current to, and ok=false when sinceGen has
// fallen out of the ring's window (the caller must rescan). The caller
// must hold the table's mutation lock (read side suffices) — the point
// is that replaying the snapshot against a packet afterwards needs no
// lock at all.
func (t *Table) MutationsSince(sinceGen uint64, dst *[MutLogWindow]openflow.Match) (n int, cur uint64, ok bool) {
	cur = t.gen.Load()
	if cur-sinceGen > mutLogSize {
		return 0, cur, false
	}
	for g := sinceGen + 1; g <= cur; g++ {
		dst[n] = t.mutLog[g%mutLogSize]
		n++
	}
	return n, cur, true
}

// microFresh replays the mutation log over a stale cached result:
// true when no mutation since its stamp could affect this packet.
func (t *Table) microFresh(me microEntry, p *netpkt.Packet, inPort uint16) bool {
	cur := t.gen.Load()
	if cur-me.gen > mutLogSize {
		return false // older than the ring's window: cannot prove freshness
	}
	for g := me.gen + 1; g <= cur; g++ {
		if t.mutLog[g%mutLogSize].Matches(p, inPort) {
			return false
		}
	}
	return true
}

// cacheLookup stores a lookup's winner.
func (t *Table) cacheLookup(k microKey, e *Entry) {
	if t.microMaxSize <= 0 {
		return
	}
	if t.micro == nil {
		t.micro = make(map[microKey]microEntry, 64)
	} else if len(t.micro) >= t.microMaxSize {
		t.microInvals.Inc()
		clear(t.micro)
	}
	t.micro[k] = microEntry{e: e, gen: t.gen.Load()}
	t.microEntries.Set(int64(len(t.micro)))
}

// Len returns the number of installed rules.
func (t *Table) Len() int { return len(t.entries) }

// RuleCount returns the installed rule count from the gauge mirrored at
// mutation points — unlike Len, safe to call from any goroutine.
func (t *Table) RuleCount() int { return int(t.ruleCount.Value()) }

// Capacity returns the rule capacity (0 = unbounded).
func (t *Table) Capacity() int { return t.capacity }

// Lookups returns the total number of Lookup calls.
func (t *Table) Lookups() uint64 {
	return t.microHits.Value() + t.scanMatched.Value() + t.scanMissed.Value()
}

// Matched returns the number of Lookup calls that found a rule.
func (t *Table) Matched() uint64 {
	return t.microHits.Value() + t.scanMatched.Value()
}

// Entries returns a snapshot of the rules in match order.
func (t *Table) Entries() []*Entry {
	out := make([]*Entry, len(t.entries))
	copy(out, t.entries)
	return out
}

// Apply executes a flow_mod against the table. For adds it returns
// ErrTableFull when at capacity and the rule is not an overwrite.
func (t *Table) Apply(m openflow.FlowMod, now time.Time) ([]Removed, error) {
	switch m.Command {
	case openflow.FlowAdd:
		return nil, t.add(m, now)
	case openflow.FlowModify:
		t.modify(m, false)
		return nil, nil
	case openflow.FlowModifyStrict:
		t.modify(m, true)
		return nil, nil
	case openflow.FlowDelete:
		return t.delete(m, false), nil
	case openflow.FlowDeleteStrict:
		return t.delete(m, true), nil
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
		Installed:   now,
		LastMatched: now,
		seq:         t.nextSeq,
	}
	e.setActions(m.Actions)
	// An add with identical match and priority overwrites: the new rule
	// takes the old one's seq, hence its place in every ordering.
	if old := t.cls.get(&e.Match, e.Priority); old != nil {
		e.seq = old.seq
		t.entries[t.position(old)] = e
		t.cls.remove(old)
		t.cls.insert(e)
		t.noteMutation(&e.Match)
		return nil
	}
	if t.capacity > 0 && len(t.entries) >= t.capacity {
		return ErrTableFull
	}
	t.nextSeq++
	t.entries = slices.Insert(t.entries, t.position(e), e)
	t.cls.insert(e)
	t.noteMutation(&e.Match)
	return nil
}

// position is e's index in the match-ordered rule list — where it is if
// installed, where it belongs if not ((priority, seq) is unique).
func (t *Table) position(e *Entry) int {
	return sort.Search(len(t.entries), func(i int) bool { return !t.entries[i].before(e) })
}

// modify swaps actions in place on the live *Entry (atomically, via the
// shared-actions mirror), so cached winner pointers keep serving the
// updated actions; which entry wins a lookup is untouched, so the
// microflow cache needs no invalidation.
func (t *Table) modify(m openflow.FlowMod, strict bool) {
	if strict {
		if e := t.cls.get(&m.Match, m.Priority); e != nil {
			e.setActions(m.Actions)
		}
		return
	}
	for _, e := range t.entries {
		if Covers(&m.Match, &e.Match) {
			e.setActions(m.Actions)
		}
	}
}

func (t *Table) delete(m openflow.FlowMod, strict bool) []Removed {
	doomed := func(e *Entry) bool {
		return m.OutPort == openflow.PortNone || outputsTo(e.Actions, m.OutPort)
	}
	var removed []Removed
	if strict {
		if e := t.cls.get(&m.Match, m.Priority); e != nil && doomed(e) {
			i := t.position(e)
			t.entries = slices.Delete(t.entries, i, i+1)
			removed = []Removed{{Entry: e, Reason: openflow.RemovedDelete}}
		}
	} else {
		t.entries = slices.DeleteFunc(t.entries, func(e *Entry) bool {
			if !Covers(&m.Match, &e.Match) || !doomed(e) {
				return false
			}
			removed = append(removed, Removed{Entry: e, Reason: openflow.RemovedDelete})
			return true
		})
	}
	for _, r := range removed {
		t.cls.remove(r.Entry)
	}
	if len(removed) > 0 {
		// One record covers every removed rule: each removed match is
		// covered by m.Match (or equals it, strict), so any packet whose
		// cached result a removal could change matches m.Match too.
		t.noteMutation(&m.Match)
	}
	return removed
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
// counters. It returns nil on a table miss. The microflow cache serves
// repeats of a matched tuple without consulting the classifier; a miss
// is never cached, so an add is visible to the very next lookup.
func (t *Table) Lookup(p *netpkt.Packet, inPort uint16, now time.Time, frameLen int) *Entry {
	k := microKeyFor(p, inPort)
	me, cached := t.micro[k]
	if cached {
		fresh := me.gen == t.gen.Load()
		if !fresh && t.microFresh(me, p, inPort) {
			// No mutation since the stamp touches this packet: the
			// result stands. Restamp so the replay isn't repeated.
			me.gen = t.gen.Load()
			t.micro[k] = me
			t.microRevals.Inc()
			fresh = true
		}
		if fresh {
			t.microHits.Inc()
			return t.hit(me.e, now, frameLen)
		}
		// Stale and possibly affected: fall through to the classifier,
		// which re-caches the authoritative result.
	}
	e := t.cls.find(p, inPort)
	if e == nil {
		t.scanMissed.Inc()
		if cached {
			// The rule this tuple was served by is gone.
			delete(t.micro, k)
			t.microEntries.Set(int64(len(t.micro)))
		}
		return nil
	}
	t.scanMatched.Inc()
	t.cacheLookup(k, e)
	return t.hit(e, now, frameLen)
}

func (t *Table) hit(e *Entry, now time.Time, frameLen int) *Entry {
	e.Packets++
	e.Bytes += uint64(frameLen)
	e.LastMatched = now
	return e
}

// LookupShared is Lookup for callers holding a shared (read) lock on the
// table: multiple goroutines may run it concurrently. It bypasses the
// embedded microflow cache (shard-local MicroCaches replace it — see
// Concurrent) and updates the matched entry's counters atomically.
// Telemetry counters are atomics already, so the shared lookup is
// observable exactly like the owned one.
func (t *Table) LookupShared(p *netpkt.Packet, inPort uint16, now time.Time, frameLen int) *Entry {
	e := t.cls.find(p, inPort)
	if e == nil {
		t.scanMissed.Inc()
		return nil
	}
	t.scanMatched.Inc()
	hitShared(e, now, frameLen)
	return e
}

// hitShared is hit() for concurrent callers: per-entry counters become
// atomic adds and the last-matched stamp lands in the atomic mirror.
func hitShared(e *Entry, now time.Time, frameLen int) {
	atomic.AddUint64(&e.Packets, 1)
	atomic.AddUint64(&e.Bytes, uint64(frameLen))
	e.lastNanos.Store(now.UnixNano())
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
		case e.IdleTimeout > 0 && now.Sub(e.effectiveLastMatched()) >= e.IdleTimeout:
			removed = append(removed, Removed{Entry: e, Reason: openflow.RemovedIdleTimeout})
		default:
			return false
		}
		return true
	})
	// Each expired rule's own match scopes its record: only packets the
	// dead rule could have served pay a rescan.
	for _, r := range removed {
		t.cls.remove(r.Entry)
		t.noteMutation(&r.Entry.Match)
	}
	return removed
}

// Clear removes every rule.
func (t *Table) Clear() {
	t.entries = nil
	t.cls = classifier{}
	t.invalidateMicro()
}

// Covers reports whether every packet matching b also matches a (a is at
// least as general as b, field by field). It is the OpenFlow non-strict
// delete/modify predicate.
func Covers(a, b *openflow.Match) bool {
	simple := []struct {
		bit   uint32
		equal bool
	}{
		{openflow.WildInPort, a.InPort == b.InPort},
		{openflow.WildDlSrc, a.DlSrc == b.DlSrc},
		{openflow.WildDlDst, a.DlDst == b.DlDst},
		{openflow.WildVLAN, a.DlVLAN == b.DlVLAN},
		{openflow.WildVLANPCP, a.DlVLANPCP == b.DlVLANPCP},
		{openflow.WildDlType, a.DlType == b.DlType},
		{openflow.WildNwProto, a.NwProto == b.NwProto},
		{openflow.WildNwTOS, a.NwTOS == b.NwTOS},
		{openflow.WildTpSrc, a.TpSrc == b.TpSrc},
		{openflow.WildTpDst, a.TpDst == b.TpDst},
	}
	for _, f := range simple {
		if a.Wildcards&f.bit != 0 {
			continue // a wildcards the field: covers anything
		}
		if b.Wildcards&f.bit != 0 {
			return false // a concrete, b wildcard: b is broader
		}
		if !f.equal {
			return false
		}
	}
	if al, bl := a.NwSrcMaskLen(), b.NwSrcMaskLen(); al > 0 {
		if bl < al || !b.NwSrc.InPrefix(a.NwSrc, al) {
			return false
		}
	}
	if al, bl := a.NwDstMaskLen(), b.NwDstMaskLen(); al > 0 {
		if bl < al || !b.NwDst.InPrefix(a.NwDst, al) {
			return false
		}
	}
	return true
}

// SoftwareLookupCost models the per-packet lookup latency of a software
// flow table holding n rules: a fixed base plus a linear scan component.
// Hardware TCAM lookup is constant-time; pass perRule = 0 for it.
func SoftwareLookupCost(n int, base, perRule time.Duration) time.Duration {
	return base + time.Duration(n)*perRule
}
