package flowtable

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"floodguard/internal/netpkt"
	"floodguard/internal/openflow"
)

func exactModFor(p *netpkt.Packet, inPort uint16, outPort uint16, prio uint16) openflow.FlowMod {
	return openflow.FlowMod{
		Match:    openflow.ExactFrom(p, inPort),
		Command:  openflow.FlowAdd,
		Priority: prio,
		Actions:  []openflow.Action{openflow.Output(outPort)},
	}
}

func TestConcurrentLookupCacheAndRevalidate(t *testing.T) {
	c := NewConcurrent(0)
	mc := NewMicroCache(0)
	now := time.Now()

	g := netpkt.NewSpoofGen(1, netpkt.FloodUDP, 0)
	hit := g.Next()
	other := g.Next()

	if _, err := c.Apply(exactModFor(&hit, 1, 2, 10), now); err != nil {
		t.Fatal(err)
	}

	// First lookup scans and caches; second must be a shard-local hit.
	if e := c.Lookup(mc, &hit, 1, now, 64); e == nil {
		t.Fatal("expected match")
	}
	if e := c.Lookup(mc, &hit, 1, now, 64); e == nil {
		t.Fatal("expected cached match")
	}
	st := mc.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats after warm hit: %+v", st)
	}

	// A mutation scoped to a different tuple must revalidate, not rescan.
	if _, err := c.Apply(exactModFor(&other, 1, 3, 10), now); err != nil {
		t.Fatal(err)
	}
	if e := c.Lookup(mc, &hit, 1, now, 64); e == nil {
		t.Fatal("expected match after unrelated mutation")
	}
	st = mc.Stats()
	if st.Revalidations != 1 {
		t.Fatalf("expected 1 revalidation, got %+v", st)
	}
	if st.Misses != 1 {
		t.Fatalf("unrelated mutation forced a rescan: %+v", st)
	}

	// Deleting the cached rule is in scope: the next lookup must rescan
	// and observe the miss.
	del := openflow.FlowMod{
		Match:   openflow.ExactFrom(&hit, 1),
		Command: openflow.FlowDeleteStrict, Priority: 10,
		OutPort: openflow.PortNone,
	}
	if _, err := c.Apply(del, now); err != nil {
		t.Fatal(err)
	}
	if e := c.Lookup(mc, &hit, 1, now, 64); e != nil {
		t.Fatal("lookup served a deleted rule from the shard cache")
	}
	st = mc.Stats()
	if st.Misses != 2 {
		t.Fatalf("delete in scope should rescan: %+v", st)
	}

	// The miss displaced the dead entry and is itself never stored: the
	// repeat goes back to the table, and an add is seen by the very next
	// lookup.
	if e := c.Lookup(mc, &hit, 1, now, 64); e != nil {
		t.Fatal("lookup served a deleted rule")
	}
	if got := mc.Stats(); got.Hits != st.Hits || got.Misses != st.Misses+1 || got.Entries != 0 {
		t.Fatalf("miss was stored in the shard cache: %+v", got)
	}
	if _, err := c.Apply(exactModFor(&hit, 1, 2, 10), now); err != nil {
		t.Fatal(err)
	}
	if e := c.Lookup(mc, &hit, 1, now, 64); e == nil {
		t.Fatal("add not visible to the next lookup")
	}
}

// TestConcurrentReplaySkipsForeignPorts pins the shard-ownership fast
// path in stale-hit revalidation: once SetOwner declares the cache's
// port domain, a logged mutation pinned to a foreign port is discarded
// without a Matches() walk (counted in ReplaySkips), while mutations on
// owned ports and in_port-wildcarded mutations still replay fully.
func TestConcurrentReplaySkipsForeignPorts(t *testing.T) {
	c := NewConcurrent(0)
	mc := NewMicroCache(0)
	mc.SetOwner(0, 2) // this cache serves even ports only
	now := time.Now()

	g := netpkt.NewSpoofGen(2, netpkt.FloodUDP, 0)
	hit := g.Next()
	foreign := g.Next()

	if _, err := c.Apply(exactModFor(&hit, 2, 3, 10), now); err != nil {
		t.Fatal(err)
	}
	if e := c.Lookup(mc, &hit, 2, now, 64); e == nil {
		t.Fatal("expected match")
	}

	// Mutation pinned to port 1 (odd: foreign domain): the revalidation
	// must skip it outright and keep the cached entry fresh.
	if _, err := c.Apply(exactModFor(&foreign, 1, 4, 10), now); err != nil {
		t.Fatal(err)
	}
	if e := c.Lookup(mc, &hit, 2, now, 64); e == nil {
		t.Fatal("expected match after foreign-port mutation")
	}
	st := mc.Stats()
	if st.ReplaySkips != 1 {
		t.Fatalf("foreign-port mutation not skipped: %+v", st)
	}
	if st.Revalidations != 1 || st.Misses != 1 {
		t.Fatalf("skip must still count as a revalidated hit: %+v", st)
	}

	// Mutation pinned to an owned port (4: even) replays with a real
	// Matches() walk — no new skip, but still a revalidation.
	if _, err := c.Apply(exactModFor(&foreign, 4, 4, 10), now); err != nil {
		t.Fatal(err)
	}
	if e := c.Lookup(mc, &hit, 2, now, 64); e == nil {
		t.Fatal("expected match after owned-port mutation")
	}
	st = mc.Stats()
	if st.ReplaySkips != 1 {
		t.Fatalf("owned-port mutation wrongly skipped: %+v", st)
	}
	if st.Revalidations != 2 {
		t.Fatalf("owned-port mutation should revalidate: %+v", st)
	}

	// An in_port-wildcarded delete of the cached rule reaches every
	// domain: it must NOT be skipped, and the rescan must see the miss.
	del := openflow.FlowMod{
		Match:   openflow.ExactFrom(&hit, 2),
		Command: openflow.FlowDelete, Priority: 10,
		OutPort: openflow.PortNone,
	}
	del.Match.Wildcards |= openflow.WildInPort
	if _, err := c.Apply(del, now); err != nil {
		t.Fatal(err)
	}
	if e := c.Lookup(mc, &hit, 2, now, 64); e != nil {
		t.Fatal("skip logic served a rule deleted by a broadcast mutation")
	}
	st = mc.Stats()
	if st.ReplaySkips != 1 {
		t.Fatalf("wildcarded mutation wrongly skipped: %+v", st)
	}
	if st.Misses != 2 {
		t.Fatalf("broadcast delete should force a rescan: %+v", st)
	}
}

func TestConcurrentRingOverflowForcesRescan(t *testing.T) {
	c := NewConcurrent(0)
	mc := NewMicroCache(0)
	now := time.Now()
	g := netpkt.NewSpoofGen(2, netpkt.FloodUDP, 0)
	hit := g.Next()
	if _, err := c.Apply(exactModFor(&hit, 1, 2, 10), now); err != nil {
		t.Fatal(err)
	}
	if c.Lookup(mc, &hit, 1, now, 64) == nil {
		t.Fatal("expected match")
	}
	// Push the cached stamp beyond the ring window with unrelated churn.
	for i := 0; i < MutLogWindow+4; i++ {
		p := g.Next()
		if _, err := c.Apply(exactModFor(&p, 1, 3, 5), now); err != nil {
			t.Fatal(err)
		}
	}
	before := mc.Stats()
	if c.Lookup(mc, &hit, 1, now, 64) == nil {
		t.Fatal("expected match after churn")
	}
	after := mc.Stats()
	if after.Misses != before.Misses+1 {
		t.Fatalf("out-of-window entry must rescan: before %+v after %+v", before, after)
	}
	if after.Revalidations != before.Revalidations {
		t.Fatalf("out-of-window entry must not claim a revalidation: %+v", after)
	}
}

// TestConcurrentRaceSoak runs per-goroutine shard caches against a rule
// churner under -race: lookups must never return a rule that was
// strictly deleted before the lookup began on a quiesced table, and the
// structure must survive concurrent scans, snapshots, and mutations.
func TestConcurrentRaceSoak(t *testing.T) {
	c := NewConcurrent(0)
	now := time.Now()
	g := netpkt.NewSpoofGen(3, netpkt.FloodUDP, 0)

	stable := make([]netpkt.Packet, 16)
	for i := range stable {
		stable[i] = g.Next()
		if _, err := c.Apply(exactModFor(&stable[i], 1, 2, 10), now); err != nil {
			t.Fatal(err)
		}
	}

	const readers = 2
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			mc := NewMicroCache(1024)
			lg := netpkt.NewSpoofGen(seed, netpkt.FloodMixed, 0)
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Stable rules must always match; spoofed tuples miss.
				p := stable[i%len(stable)]
				if c.Lookup(mc, &p, 1, now, 64) == nil {
					t.Errorf("stable rule vanished")
					return
				}
				miss := lg.Next()
				c.Lookup(mc, &miss, 1, now, 64)
				i++
				// Keep the single-GOMAXPROCS case fair to the churner.
				runtime.Gosched()
			}
		}(int64(100 + r))
	}

	churn := netpkt.NewSpoofGen(4, netpkt.FloodUDP, 0)
	for i := 0; i < 400; i++ {
		p := churn.Next()
		if _, err := c.Apply(exactModFor(&p, 1, 3, 5), now); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			del := openflow.FlowMod{
				Match:   openflow.ExactFrom(&p, 1),
				Command: openflow.FlowDeleteStrict, Priority: 5,
				OutPort: openflow.PortNone,
			}
			if _, err := c.Apply(del, now); err != nil {
				t.Fatal(err)
			}
		}
		if i%200 == 0 {
			c.Expire(now)
		}
	}
	// The churner may outrun reader startup; keep the table live until
	// the readers have demonstrably scanned it.
	for deadline := time.Now().Add(5 * time.Second); c.Stats().Lookups == 0; {
		if time.Now().After(deadline) {
			break
		}
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()

	if c.Stats().Lookups == 0 {
		t.Fatal("no lookups recorded")
	}
}

// TestConcurrentIdleTimeoutSeesSharedHits pins the atomic last-matched
// mirror: a rule kept alive only by shared-lock lookups must not idle
// out.
func TestConcurrentIdleTimeoutSeesSharedHits(t *testing.T) {
	c := NewConcurrent(0)
	mc := NewMicroCache(0)
	start := time.Now()
	g := netpkt.NewSpoofGen(5, netpkt.FloodUDP, 0)
	p := g.Next()
	m := exactModFor(&p, 1, 2, 10)
	m.IdleTimeout = 10 // seconds
	if _, err := c.Apply(m, start); err != nil {
		t.Fatal(err)
	}
	// Touch at +8s via the concurrent path, then expire at +15s: the
	// shared hit must have refreshed the idle clock.
	if c.Lookup(mc, &p, 1, start.Add(8*time.Second), 64) == nil {
		t.Fatal("expected match")
	}
	if removed := c.Expire(start.Add(15 * time.Second)); len(removed) != 0 {
		t.Fatalf("rule idled out despite a shared hit at +8s: %v", removed)
	}
	if removed := c.Expire(start.Add(30 * time.Second)); len(removed) != 1 {
		t.Fatalf("rule should idle out by +30s, removed %v", removed)
	}
}

func BenchmarkConcurrentShardHit(b *testing.B) {
	c := NewConcurrent(0)
	mc := NewMicroCache(0)
	now := time.Now()
	g := netpkt.NewSpoofGen(6, netpkt.FloodUDP, 0)
	p := g.Next()
	if _, err := c.Apply(exactModFor(&p, 1, 2, 10), now); err != nil {
		b.Fatal(err)
	}
	c.Lookup(mc, &p, 1, now, 64) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Lookup(mc, &p, 1, now, 64) == nil {
			b.Fatal("expected hit")
		}
	}
}

func BenchmarkConcurrentShardHitParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			c := NewConcurrent(0)
			now := time.Now()
			g := netpkt.NewSpoofGen(7, netpkt.FloodUDP, 0)
			p := g.Next()
			if _, err := c.Apply(exactModFor(&p, 1, 2, 10), now); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetParallelism(workers)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				mc := NewMicroCache(0)
				for pb.Next() {
					if c.Lookup(mc, &p, 1, now, 64) == nil {
						b.Fatal("expected hit")
					}
				}
			})
		})
	}
}
