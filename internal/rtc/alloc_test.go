package rtc

import (
	"testing"
	"time"

	"floodguard/internal/journal"
	"floodguard/internal/netpkt"
	"floodguard/internal/openflow"
)

// TestShardBodyAllocatesNothing is the absolute witness behind "the
// per-packet shard path performs zero allocations, hit or miss": the
// warm run-to-completion body over a 3:1 benign/spoof mix, with no
// journal, with every spoof from a fresh source, with a live journal
// (barrier heartbeat and consumer drain included), with a
// strict-delete/re-add flow_mod pair arriving
// in-band through the control ring every 64 packets (where only the
// rule install itself may allocate), and in manual mode, where
// InjectItem runs the body on the caller and a miss goes straight into
// the cache's queues.
func TestShardBodyAllocatesNothing(t *testing.T) {
	now := time.Now()
	t.Run("journal-off", func(t *testing.T) {
		_, s, items, drain := warmShard(t, Config{})
		i := 0
		if a := testing.AllocsPerRun(4096, func() {
			s.processOne(&items[i&63], now)
			if i++; i&1023 == 0 {
				drain()
			}
		}); a != 0 {
			t.Errorf("shard body allocates %v per packet, want 0", a)
		}
	})
	t.Run("fresh-sources", func(t *testing.T) {
		_, s, items, drain := warmShard(t, Config{})
		i := 0
		if a := testing.AllocsPerRun(4096, func() {
			s.processOne(freshSpoof(items, i), now)
			if i++; i&1023 == 0 {
				drain()
			}
		}); a != 0 {
			t.Errorf("shard body under fresh spoofed sources allocates %v per packet, want 0", a)
		}
	})
	t.Run("journal-on", func(t *testing.T) {
		jnl := journal.ForEngine(1)
		_, s, items, drain := warmShard(t, Config{Journal: jnl})
		i := 0
		if a := testing.AllocsPerRun(4096, func() {
			s.processOne(&items[i&63], now)
			if i++; i&1023 == 0 {
				s.noteFlush()
				drain()
				jnl.Drain()
			}
		}); a != 0 {
			t.Errorf("journalled shard body allocates %v per packet, want 0", a)
		}
		if jnl.Dropped() != 0 {
			t.Errorf("journal dropped %d events", jnl.Dropped())
		}
	})
	t.Run("churn", func(t *testing.T) {
		_, s, items, drain := warmShard(t, Config{})
		del, add := churnPair(items)
		// Installing a rule allocates its table entry, so the whole loop
		// is measured as one run and held to that: a handful of
		// allocations per re-add, none per packet or per control-ring hop.
		const packets, pairs = 4096, 4096 / 64
		total := testing.AllocsPerRun(1, func() {
			for i := 1; i <= packets; i++ {
				s.processOne(&items[i&63], now)
				if i&63 == 0 {
					pushMod(t, s, del)
					pushMod(t, s, add)
					s.drainCtrl(now)
				}
				if i&1023 == 0 {
					drain()
				}
			}
		})
		if total > 4*pairs {
			t.Errorf("%v allocations over %d packets and %d delete/re-add pairs, want <= %d (rule installs only)",
				total, packets, pairs, 4*pairs)
		}
		if s.applied.Load() == 0 || s.applyErrs.Load() != 0 {
			t.Errorf("churn applied %d flow_mods with %d errors", s.applied.Load(), s.applyErrs.Load())
		}
	})
	t.Run("manual", func(t *testing.T) {
		// 64-slot queues: the warm-up fills them, so the measured misses
		// overwrite the oldest entry in place instead of growing a queue.
		e, s, items, _ := warmShard(t, Config{Manual: true, QueueCapacity: 64})
		e.Start()
		defer e.Stop()
		for i := 0; i < 8192; i++ {
			e.InjectItem(items[i&63])
		}
		i := 0
		if a := testing.AllocsPerRun(4096, func() {
			e.InjectItem(items[i&63])
			if i++; i&1023 == 0 {
				e.Advance(time.Duration(i) * time.Millisecond) // replay ticks
			}
		}); a != 0 {
			t.Errorf("manual-mode shard body with cache ingest allocates %v per packet, want 0", a)
		}
		if st := e.CacheStats(); st.Enqueued != s.n.misses || st.Emitted == 0 {
			t.Errorf("cache enqueued %d of %d misses, emitted %d", st.Enqueued, s.n.misses, st.Emitted)
		}
	})
}

// pushMod enqueues a flow_mod on the shard's control ring without
// waiting for its ack: the in-band hop a running shard drains at the top
// of each batch.
func pushMod(tb testing.TB, s *Shard, m openflow.FlowMod) {
	if err := s.pushCtrl(ctrlEvent{mod: m}, time.Now().Add(time.Second)); err != nil {
		tb.Fatal(err)
	}
}

// TestRingHandoffAllocatesNothing pins the shard→cache handoff: a
// 64-wide batch of CacheItems through the SPSC ring and out again.
func TestRingHandoffAllocatesNothing(t *testing.T) {
	s := New(Config{Shards: 1}).Shard(0)
	g := netpkt.NewSpoofGen(3, netpkt.FloodMixed, 0)
	in := make([]CacheItem, 64)
	out := make([]CacheItem, 64)
	for i := range in {
		in[i] = CacheItem{Origin: 1, Pkt: g.Next()}
	}
	if a := testing.AllocsPerRun(1000, func() {
		if s.toCache.PushBatch(in) != 64 || s.toCache.PopBatch(out) != 64 {
			t.Fatal("short batch")
		}
	}); a != 0 {
		t.Errorf("ring handoff allocates %v per batch, want 0", a)
	}
}
