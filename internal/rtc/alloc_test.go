package rtc

import (
	"testing"
	"time"

	"floodguard/internal/journal"
	"floodguard/internal/netpkt"
	"floodguard/internal/openflow"
	"floodguard/internal/telemetry"
)

// TestShardBodyAllocatesNothing is the absolute witness behind "the
// per-packet shard path performs zero allocations, hit or miss": the
// warm run-to-completion body over a 3:1 benign/spoof mix, with no
// journal, with every spoof from a fresh source, with a live journal
// (barrier heartbeat and consumer drain included), with a
// strict-delete/re-add flow_mod pair applied through Engine.Apply every
// 64 packets (where only the rule install itself may allocate), and in
// manual mode, where
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
	t.Run("guarded-fresh-sources", func(t *testing.T) {
		// Distinct spoofed TCP sources per window, the flat-cost witness:
		// at N = TCPMaxSources and at 16N fresh one-SYN sources per
		// window, a window (the body, a flush, a Roll) allocates nothing
		// once warm, and the attributor holds the same number of sources;
		// at 16N the shard's evidence bound turns the surplus away.
		// (attrib's TestTCPEvidenceCostFlatInSources pins Roll's ranked
		// count.)
		run := func(perWindow int) (allocs float64, held, dropped float64) {
			e, packet := guardedFreshSources(t, perWindow)
			reg := telemetry.NewRegistry()
			e.Attributor().Register(reg, "a")
			i := 0
			window := func() {
				for end := i + 4*perWindow; i < end; i++ {
					packet(i)
				}
			}
			// Five warm windows, then AllocsPerRun's one and four more:
			// the last Roll ranks a full table beside a full hand-over.
			for w := 0; w < 5; w++ {
				window()
			}
			allocs = testing.AllocsPerRun(4, window)
			for _, m := range reg.Snapshot().Metrics {
				switch m.Name {
				case "a_tcp_sources":
					held = m.Value
				case "a_tcp_verdicts_dropped_total":
					dropped = m.Value
				}
			}
			return allocs, held, dropped
		}
		const n = 1024 // attrib's default TCPMaxSources
		a1, h1, d1 := run(n)
		a16, h16, d16 := run(16 * n)
		if a1 != 0 || a16 != 0 {
			t.Errorf("a guarded window allocates %v at %d fresh sources and %v at %d, want 0", a1, n, a16, 16*n)
		}
		if h1 != h16 || h1 == 0 || d16 <= d1 {
			t.Errorf("at %d sources per window %v held, %v dropped; at %d %v held, %v dropped: want equal holdings, more drops at %d",
				n, h1, d1, 16*n, h16, d16, 16*n)
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
		e, s, items, drain := warmShard(t, Config{})
		del, add := churnPair(items)
		// Installing a rule allocates its table entry, so the whole loop
		// is measured as one run and held to that: a handful of
		// allocations per re-add, none per packet or per Apply.
		const packets, pairs = 4096, 4096 / 64
		total := testing.AllocsPerRun(1, func() {
			for i := 1; i <= packets; i++ {
				s.processOne(&items[i&63], now)
				if i&63 == 0 {
					mustApply(t, e, del)
					mustApply(t, e, add)
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
			e.InjectItem(&items[i&63])
		}
		i := 0
		if a := testing.AllocsPerRun(4096, func() {
			e.InjectItem(&items[i&63])
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

// mustApply applies a flow_mod through Engine.Apply, failing on error.
func mustApply(tb testing.TB, e *Engine, m openflow.FlowMod) {
	if err := e.Apply(m); err != nil {
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
