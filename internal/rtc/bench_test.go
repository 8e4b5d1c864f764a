package rtc

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"floodguard/internal/netpkt"
	"floodguard/internal/openflow"
	"floodguard/internal/tcpguard"
)

// mutexWaits sums the contention event counts of the runtime mutex
// profile — the witness that a code region took no contended lock.
func mutexWaits() int64 {
	n, _ := runtime.MutexProfile(nil)
	recs := make([]runtime.BlockProfileRecord, n+64)
	n, _ = runtime.MutexProfile(recs)
	var total int64
	for _, r := range recs[:n] {
		total += r.Count
	}
	return total
}

// warmShard builds a one-shard engine holding the shard-body working
// set — 48 installed benign flows and 16 spoofed tuples in a 3:1 mix —
// and runs it once so the attribution sketches are warm. It returns a
// drain func that ends the batch as the shard loop does (publish, which
// commits the reserved ring slots) and empties the shard→cache ring
// (same-goroutine drain is legal: SPSC needs *one* producer and *one*
// consumer, and a caller driving processOne by hand is both); in manual
// mode there is no ring and it only publishes.
func warmShard(tb testing.TB, cfg Config) (e *Engine, s *Shard, items []Item, drain func()) {
	tb.Helper()
	cfg.Shards, cfg.CacheRingCapacity = 1, 8192
	e = New(cfg)
	s = e.Shard(0)
	const port = 1
	bg := netpkt.NewSpoofGen(1, netpkt.FloodUDP, 0)
	sg := netpkt.NewSpoofGen(2, netpkt.FloodMixed, 0)
	items = make([]Item, 64)
	for i := range items {
		if i%4 != 0 {
			p := bg.Next()
			if err := e.Apply(exactMod(&p, port, 2)); err != nil {
				tb.Fatal(err)
			}
			items[i] = Item{Pkt: p, InPort: port}
		} else {
			items[i] = Item{Pkt: sg.Next(), InPort: port}
		}
	}
	drain = func() {
		s.publish() // the batch end: commits the reserved ring slots
		for s.toCache != nil {
			n := len(s.toCache.Peek(256))
			if n == 0 {
				break
			}
			s.toCache.Release(n)
		}
	}
	now := time.Now()
	for i := range items {
		s.processOne(&items[i], now)
	}
	drain()
	return e, s, items, drain
}

// freshSpoof returns warmShard's item i&63 for packet i of a run. A spoof
// item (every fourth) gets a new source first, cycling through 1<<16
// distinct NwSrc, so every spoof is a source the shard has not seen —
// the per-spoof cost a fresh-key flood pays.
func freshSpoof(items []Item, i int) *Item {
	it := &items[i&63]
	if i&3 == 0 {
		// Odd multiplier: a bijection on uint32, so 1<<16 inputs give
		// 1<<16 distinct addresses.
		it.Pkt.NwSrc = netpkt.IPv4(uint32(i>>2&0xFFFF) * 0x9E3779B1)
	}
	return it
}

// guardedFreshSources builds warmShard's engine with the TCP guard on and
// every spoof item a TCP SYN, and returns a func that runs packet i of a
// run: each spoof (every fourth packet) from a source no earlier packet
// used, and after every perWindow-th spoof the window barrier a wall-clock
// shard and the cache stage run — drain, flush, Roll.
func guardedFreshSources(tb testing.TB, perWindow int) (*Engine, func(i int)) {
	e, s, items, drain := warmShard(tb, Config{TCPGuard: &tcpguard.Config{Secret: 0xF100D}})
	syns := netpkt.NewSpoofGen(2, netpkt.FloodTCP, 0)
	for i := 0; i < len(items); i += 4 {
		items[i].Pkt = syns.Next()
	}
	now := time.Now()
	return e, func(i int) {
		it := &items[i&63]
		if i&3 == 0 {
			// Odd multiplier: a bijection on uint32.
			it.Pkt.NwSrc = netpkt.IPv4(uint32(i>>2) * 0x9E3779B1)
		}
		s.processOne(it, now)
		if i&1023 == 0 {
			drain()
		}
		if (i+1)%(4*perWindow) == 0 {
			drain()
			s.flush()
			e.Attributor().Roll(50 * time.Millisecond)
		}
	}
}

// churnPair prebuilds the strict-delete/re-add pair for one served flow
// of warmShard's working set, so a loop applying it allocates nothing of
// its own.
func churnPair(items []Item) (del, add openflow.FlowMod) {
	pkt := &items[len(items)-1].Pkt // a benign, installed flow
	del = exactMod(pkt, 1, 2)
	del.Command = openflow.FlowDeleteStrict
	del.OutPort = openflow.PortNone
	return del, exactMod(pkt, 1, 2)
}

// BenchmarkShardPerPacket measures the warm run-to-completion body: a
// 3:1 benign/spoof mix where every benign flow has an installed rule
// and every spoof tuple misses the classifier (misses that observe
// attribution and ring-push to the cache stage). A
// concurrent telemetry scraper runs throughout, and the bench reports
// the runtime mutex-profile contention delta as "mutexwaits": the
// witness that the per-packet shard path shares no lock with the control
// plane's scrape path. It is reported, not gated — the profile is
// process-wide and reads nonzero on a 2-CPU box at any commit. The
// 0 allocs/op budget is a tier-1 test (TestShardBodyAllocatesNothing).
func BenchmarkShardPerPacket(b *testing.B) {
	e, s, items, drain := warmShard(b, Config{})
	now := time.Now()

	// Concurrent control plane: scrape engine-wide stats while the shard
	// runs. If the per-packet path took any shared mutex, this would
	// register contention.
	var stop atomic.Bool
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for !stop.Load() {
			_ = e.Snapshot()
			_, _, _, _ = e.Counters()
			time.Sleep(100 * time.Microsecond)
		}
	}()

	prev := runtime.SetMutexProfileFraction(1)
	before := mutexWaits()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.processOne(&items[i&63], now)
		if i&1023 == 0 {
			drain()
		}
	}
	b.StopTimer()
	waits := mutexWaits() - before
	runtime.SetMutexProfileFraction(prev)
	stop.Store(true)
	<-scraped
	b.ReportMetric(float64(waits), "mutexwaits")
	if s.n.forwarded+s.n.misses == 0 {
		b.Fatal("no packets processed")
	}
}

// BenchmarkShardPerPacketFreshSources is BenchmarkShardPerPacket with
// every spoof from a source the shard has not seen (freshSpoof): the mix
// wire_flood's spoofed half sends. The 0 allocs/op budget is a tier-1 test
// (TestShardBodyAllocatesNothing).
func BenchmarkShardPerPacketFreshSources(b *testing.B) {
	_, s, items, drain := warmShard(b, Config{})
	now := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.processOne(freshSpoof(items, i), now)
		if i&1023 == 0 {
			drain()
		}
	}
	b.StopTimer()
	if s.n.misses < uint64(b.N/4) {
		b.Fatalf("%d misses over %d packets, want every spoof to miss", s.n.misses, b.N)
	}
}

// BenchmarkShardPerPacketFreshSourcesGuarded is
// BenchmarkShardPerPacketFreshSources with the TCP guard on and every
// spoof a SYN from a fresh source, with a window barrier (flush and Roll)
// every 4096 spoofs, four times the shard's TCP evidence bound: the
// per-spoof evidence cost a SYN flood pays, Roll included. Reported, not
// gated; the 0 allocs budget is TestShardBodyAllocatesNothing's
// guarded-fresh-sources leg.
func BenchmarkShardPerPacketFreshSourcesGuarded(b *testing.B) {
	_, packet := guardedFreshSources(b, 4096)
	for i := 0; i < 4*4096; i++ { // one warm window
		packet(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packet(4*4096 + i)
	}
}

// BenchmarkShardChurnBody measures the shard body under rule churn: the
// same warm 3:1 packet mix as BenchmarkShardPerPacket, but every 64
// packets a strict-delete/re-add pair for a served benign flow is
// applied through Engine.Apply (the path every flow_mod takes; the
// harness driving the shard body holds no partMu, so it is free), while
// a concurrent scraper reads Snapshot/Counters. It reports the mutex-profile
// contention delta and the flow_mods applied; the 0 allocs/op budget is
// a tier-1 test (TestShardBodyAllocatesNothing).
func BenchmarkShardChurnBody(b *testing.B) {
	e, s, items, drain := warmShard(b, Config{})
	del, add := churnPair(items)
	now := time.Now()

	var stop atomic.Bool
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for !stop.Load() {
			_ = e.Snapshot()
			_, _, _, _ = e.Counters()
			_ = e.TableRules()
			time.Sleep(100 * time.Microsecond)
		}
	}()

	prev := runtime.SetMutexProfileFraction(1)
	before := mutexWaits()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.processOne(&items[i&63], now)
		if i&63 == 63 {
			mustApply(b, e, del)
			mustApply(b, e, add)
		}
		if i&1023 == 0 {
			drain()
		}
	}
	b.StopTimer()
	waits := mutexWaits() - before
	runtime.SetMutexProfileFraction(prev)
	stop.Store(true)
	<-scraped
	b.ReportMetric(float64(waits), "mutexwaits")
	applied := s.applied.Load()
	b.ReportMetric(float64(applied), "flowmods")
	if b.N >= 64 && applied == 0 {
		b.Fatal("churn never applied")
	}
	if errs := s.applyErrs.Load(); errs != 0 {
		b.Fatalf("%d apply errors during churn", errs)
	}
}

// BenchmarkApplyRoundTrip measures one flow_mod round trip on a running
// engine whose shard is otherwise idle — the per-rule cost of the
// mitigation install: take the partition the waiting shard let go of,
// apply, let go. Each
// iteration applies a strict delete or a re-add of the same rule, so
// the table stays at one rule whatever b.N.
func BenchmarkApplyRoundTrip(b *testing.B) {
	e := New(Config{Shards: 1})
	e.Start()
	defer e.Stop()
	pkt := netpkt.NewSpoofGen(5, netpkt.FloodUDP, 0).Next()
	add := exactMod(&pkt, 1, 2)
	del := add
	del.Command = openflow.FlowDeleteStrict
	del.OutPort = openflow.PortNone
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := add
		if i&1 == 1 {
			m = del
		}
		if err := e.Apply(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRingHandoff measures the shard→cache handoff in isolation:
// one CacheItem through the SPSC ring per iteration, batched 64-wide —
// the inter-layer cost that replaced a channel send per packet.
func BenchmarkRingHandoff(b *testing.B) {
	e := New(Config{Shards: 1})
	s := e.Shard(0)
	g := netpkt.NewSpoofGen(3, netpkt.FloodMixed, 0)
	in := make([]CacheItem, 64)
	out := make([]CacheItem, 64)
	for i := range in {
		in[i] = CacheItem{Origin: 1, Pkt: g.Next()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 64 {
		if s.toCache.PushBatch(in) != 64 {
			b.Fatal("push short")
		}
		if s.toCache.PopBatch(out) != 64 {
			b.Fatal("pop short")
		}
	}
}
