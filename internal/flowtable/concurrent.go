// Concurrent flow table access for the run-to-completion engine: a
// single shared rule set behind an RWMutex, fronted by any number of
// shard-local MicroCaches. The per-packet fast path — an exact-match hit
// on the shard's own cache — takes zero locks: freshness is one atomic
// generation load. A stale cached result snapshots the table's mutation
// ring under the read lock and replays it against the packet *outside*
// the lock, so the critical section is a bounded memcpy of at most
// MutLogWindow match scopes, never a per-mutation Matches() walk.
package flowtable

import (
	"sync"
	"time"

	"floodguard/internal/netpkt"
	"floodguard/internal/openflow"
	"floodguard/internal/telemetry"
)

// Concurrent wraps a Table for multi-goroutine use. Mutations (Apply,
// Expire, Clear) take the write lock; lookups take the read lock only
// for the classifier lookup and the mutation-ring snapshot. The embedded
// microflow cache is disabled — shard-local MicroCaches replace it.
type Concurrent struct {
	mu sync.RWMutex
	t  *Table
}

// NewConcurrent returns a shared table bounded to capacity rules
// (0 = unbounded).
func NewConcurrent(capacity int) *Concurrent {
	t := New(capacity)
	t.SetMicroflowSize(0) // shard caches replace the embedded one
	return &Concurrent{t: t}
}

// Apply executes a flow_mod under the write lock.
func (c *Concurrent) Apply(m openflow.FlowMod, now time.Time) ([]Removed, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t.Apply(m, now)
}

// Expire removes timed-out rules under the write lock.
func (c *Concurrent) Expire(now time.Time) []Removed {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t.Expire(now)
}

// Clear removes every rule under the write lock.
func (c *Concurrent) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t.Clear()
}

// Len returns the rule count under the read lock.
func (c *Concurrent) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.t.Len()
}

// RuleCount returns the mutation-point rule-count mirror without any
// lock (it is a gauge read).
func (c *Concurrent) RuleCount() int { return c.t.RuleCount() }

// Capacity returns the rule capacity (0 = unbounded).
func (c *Concurrent) Capacity() int { return c.t.Capacity() }

// Gen returns the current mutation generation (atomic, lock-free).
func (c *Concurrent) Gen() uint64 { return c.t.Gen() }

// Entries snapshots the rules under the read lock.
func (c *Concurrent) Entries() []*Entry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.t.Entries()
}

// Stats returns the table counter snapshot (atomics only).
func (c *Concurrent) Stats() Stats { return c.t.Stats() }

// Lookups returns the total lookup count (atomics only).
func (c *Concurrent) Lookups() uint64 { return c.t.Lookups() }

// Matched returns the matched lookup count (atomics only).
func (c *Concurrent) Matched() uint64 { return c.t.Matched() }

// Register attaches the shared table's counters to reg.
func (c *Concurrent) Register(reg *telemetry.Registry, prefix string) {
	c.t.Register(reg, prefix)
}

// MicroCacheStats is a shard-local cache counter snapshot. The fields
// are plain integers owned by the shard goroutine; aggregate them at
// window boundaries, not per packet.
type MicroCacheStats struct {
	Hits   uint64 // fresh exact-match hits
	Misses uint64 // fell through to the shared-lock classifier lookup
	// Revalidations counts stale results proven still valid by replaying
	// the snapshotted mutation ring outside the lock.
	Revalidations uint64
	// ReplaySkips counts snapshotted mutations the replay discarded
	// without a Matches() walk because they were pinned to an ingress
	// port outside the cache's shard-ownership domain (see SetOwner) —
	// the wasted cross-shard work the ownership check eliminates.
	ReplaySkips uint64
	Resets      uint64 // whole-cache resets on capacity overflow
	Entries     int
}

// MicroCache is a shard-local exact-match lookup cache over a Concurrent
// table. It must be used by a single goroutine; each run-to-completion
// shard owns one, so the per-packet hit path touches only shard-local
// memory plus one atomic generation load.
type MicroCache struct {
	m   map[microKey]microEntry
	max int

	// owner/nshards pin the cache to a shard-ownership domain: when
	// nshards > 0, every lookup through this cache carries a port with
	// port%nshards == owner, so mutation replay can discard any logged
	// mutation pinned to a foreign port without consulting the packet.
	owner   int
	nshards int

	// scratch receives the mutation-ring snapshot taken under the read
	// lock; the replay against the packet runs on it after the lock is
	// released.
	scratch [MutLogWindow]openflow.Match

	stats MicroCacheStats
}

// NewMicroCache returns a shard cache bounded to max entries
// (<= 0 picks DefaultMicroflowSize). Like the embedded cache, overflow
// resets the whole map rather than evicting entry-by-entry.
func NewMicroCache(max int) *MicroCache {
	if max <= 0 {
		max = DefaultMicroflowSize
	}
	return &MicroCache{m: make(map[microKey]microEntry, 64), max: max}
}

// SetOwner declares that this cache only ever serves lookups for ports
// in shard's ownership domain (port%nshards == shard). Mutation replay
// then skips mutations pinned to foreign ports, counting each skip in
// ReplaySkips. nshards <= 1 clears the domain (no skip possible). The
// caller is responsible for the claim being true: a lookup for a
// foreign port after SetOwner can return stale results.
func (mc *MicroCache) SetOwner(shard, nshards int) {
	if nshards <= 1 {
		mc.owner, mc.nshards = 0, 0
		return
	}
	mc.owner, mc.nshards = shard, nshards
}

// Stats returns the shard-local counters. Owner goroutine only.
func (mc *MicroCache) Stats() MicroCacheStats {
	s := mc.stats
	s.Entries = len(mc.m)
	return s
}

// Reset drops every cached result. Owner goroutine only.
func (mc *MicroCache) Reset() {
	clear(mc.m)
	mc.stats.Resets++
}

func (mc *MicroCache) store(k microKey, e *Entry, gen uint64) {
	if len(mc.m) >= mc.max {
		mc.Reset()
	}
	mc.m[k] = microEntry{e: e, gen: gen}
}

// Lookup finds the highest-priority rule matching p on inPort, consulting
// the shard-local cache first. The hot path (fresh cache hit) takes zero
// locks; a stale hit pays one bounded read-locked snapshot; only a true
// miss pays the read-locked classifier lookup. Like the embedded cache,
// the shard cache admits hits only.
func (c *Concurrent) Lookup(mc *MicroCache, p *netpkt.Packet, inPort uint16, now time.Time, frameLen int) *Entry {
	k := microKeyFor(p, inPort)
	me, cached := mc.m[k]
	if cached {
		cur := c.t.Gen()
		if me.gen != cur {
			// Stale: snapshot the mutation window under the read lock,
			// then revalidate against the packet outside it. The critical
			// section is a bounded copy — no Matches() call runs under
			// the lock.
			c.mu.RLock()
			n, snapGen, inWindow := c.t.MutationsSince(me.gen, &mc.scratch)
			c.mu.RUnlock()
			if inWindow {
				fresh := true
				for i := 0; i < n; i++ {
					// A mutation pinned to a port outside this cache's
					// shard-ownership domain cannot affect any tuple this
					// cache holds: skip the Matches() walk entirely.
					if mc.nshards > 0 && mc.scratch[i].Wildcards&openflow.WildInPort == 0 &&
						int(mc.scratch[i].InPort)%mc.nshards != mc.owner {
						mc.stats.ReplaySkips++
						continue
					}
					if mc.scratch[i].Matches(p, inPort) {
						fresh = false
						break
					}
				}
				if fresh {
					// Restamp to the snapshot generation so the replay
					// isn't repeated (a mutation racing in after the
					// snapshot re-triggers revalidation next hit).
					me.gen = snapGen
					mc.m[k] = me
					mc.stats.Revalidations++
					cur = snapGen
				}
			}
		}
		if me.gen == cur {
			mc.stats.Hits++
			c.t.microHits.Inc()
			hitShared(me.e, now, frameLen)
			return me.e
		}
		// Possibly affected by a mutation (or out of the ring window):
		// fall through to the authoritative lookup.
	}
	mc.stats.Misses++
	c.mu.RLock()
	e := c.t.LookupShared(p, inPort, now, frameLen)
	gen := c.t.Gen() // stable while the read lock pins out mutations
	c.mu.RUnlock()
	if e != nil {
		mc.store(k, e, gen)
	} else if cached {
		delete(mc.m, k) // the rule this tuple was served by is gone
	}
	return e
}
