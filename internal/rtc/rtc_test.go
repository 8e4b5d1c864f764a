package rtc

import (
	"testing"
	"time"

	"floodguard/internal/netpkt"
	"floodguard/internal/openflow"
)

func exactMod(p *netpkt.Packet, inPort uint16, outPort uint16) openflow.FlowMod {
	return openflow.FlowMod{
		Match:    openflow.ExactFrom(p, inPort),
		Command:  openflow.FlowAdd,
		Priority: 100,
		Actions:  []openflow.Action{openflow.Output(outPort)},
	}
}

func testEngineConfig(shards int) Config {
	return Config{
		Shards:    shards,
		ReplayPPS: 100000, // drain the cache fast so short tests converge
		Window:    20 * time.Millisecond,
	}
}

// drive pushes benign (rule-installed) and spoofed (table-miss) packets
// through the engine from one producer per shard, returning the benign
// and spoofed counts actually accepted.
func drive(t *testing.T, e *Engine, perShard, nBenign, nSpoof int) (benign, spoofed uint64) {
	t.Helper()
	type result struct{ benign, spoofed uint64 }
	results := make(chan result, e.Shards())
	for sh := 0; sh < e.Shards(); sh++ {
		port := uint16(sh + 1) // port p -> shard p%N; offset keeps port 0 unused
		for int(port)%e.Shards() != sh {
			port++
		}
		go func(shard int, port uint16) {
			var res result
			bg := netpkt.NewSpoofGen(int64(100+shard), netpkt.FloodUDP, 0)
			benignPkt := bg.Next()
			if err := e.Apply(exactMod(&benignPkt, port, 2)); err != nil {
				t.Errorf("apply: %v", err)
			}
			sg := netpkt.NewSpoofGen(int64(200+shard), netpkt.FloodMixed, 0)
			ring := e.Shard(shard).Ring()
			for i := 0; i < perShard; i++ {
				var it Item
				if i%4 != 0 { // 3:1 benign:spoof
					it = Item{Pkt: benignPkt, InPort: port}
				} else {
					it = Item{Pkt: sg.Next(), InPort: port}
				}
				if i%DefaultLatencySample == 0 {
					it.IngressNanos = time.Now().UnixNano()
				}
				for !ring.Push(it) {
					time.Sleep(time.Microsecond)
				}
				if i%4 != 0 {
					res.benign++
				} else {
					res.spoofed++
				}
			}
			results <- res
		}(sh, port)
	}
	for i := 0; i < e.Shards(); i++ {
		r := <-results
		benign += r.benign
		spoofed += r.spoofed
	}
	return benign, spoofed
}

// TestEngineConservation pins the engine's packet accounting: every
// accepted packet is either forwarded or a miss; every miss either
// reached the cache or was counted as a ring drop; and the cache's own
// conservation equation holds.
func TestEngineConservation(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		e := New(testEngineConfig(shards))
		e.Start()
		benign, spoofed := drive(t, e, 4000, 0, 0)
		e.Stop()

		s := e.Snapshot()
		if s.Processed != benign+spoofed {
			t.Fatalf("shards=%d: processed %d, accepted %d", shards, s.Processed, benign+spoofed)
		}
		if s.Forwarded+s.Misses != s.Processed {
			t.Fatalf("shards=%d: forwarded %d + misses %d != processed %d",
				shards, s.Forwarded, s.Misses, s.Processed)
		}
		if s.Forwarded != benign {
			t.Fatalf("shards=%d: forwarded %d, benign %d", shards, s.Forwarded, benign)
		}
		if got := s.Cache.Enqueued + s.CacheDrops; got != spoofed {
			t.Fatalf("shards=%d: cache enqueued %d + ring drops %d != spoofed %d",
				shards, s.Cache.Enqueued, s.CacheDrops, spoofed)
		}
		if s.Cache.Enqueued != s.Cache.Emitted+s.Cache.Dropped+uint64(s.Cache.Backlog) {
			t.Fatalf("shards=%d: cache conservation broken: %+v", shards, s.Cache)
		}
		if s.Replayed != s.Cache.Emitted {
			t.Fatalf("shards=%d: sink saw %d, cache emitted %d", shards, s.Replayed, s.Cache.Emitted)
		}
		for i, st := range s.Shards {
			if st.Micro != (LookupStats{Hits: st.Forwarded, Misses: st.Misses}) {
				t.Fatalf("shards=%d: shard %d lookup tally %+v, forwarded %d misses %d",
					shards, i, st.Micro, st.Forwarded, st.Misses)
			}
		}
		if s.P99 == 0 || s.P50 > s.P99 {
			t.Fatalf("shards=%d: bad latency quantiles p50=%v p99=%v", shards, s.P50, s.P99)
		}
	}
}

// TestEngineBlamesAttackPort runs a sustained single-port flood beside
// benign traffic and requires the shard-merged attribution to blame the
// attack port and only it — the shard observers must reproduce the
// direct-path verdicts through their window merges.
func TestEngineBlamesAttackPort(t *testing.T) {
	e := New(Config{
		Shards:    2,
		ReplayPPS: 50000,
		Window:    10 * time.Millisecond,
	})
	e.Start()

	benignPort, attackPort := uint16(2), uint16(1) // shards 0 and 1
	bg := netpkt.NewSpoofGen(1, netpkt.FloodUDP, 0)
	benignPkt := bg.Next()
	if err := e.Apply(exactMod(&benignPkt, benignPort, 3)); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() { // benign producer: sparse, all hits
		defer close(done)
		ring := e.Shard(e.ShardFor(benignPort)).Ring()
		for i := 0; i < 40; i++ {
			ring.Push(Item{Pkt: benignPkt, InPort: benignPort})
			time.Sleep(2 * time.Millisecond)
		}
	}()
	sg := netpkt.NewSpoofGen(2, netpkt.FloodMixed, 0)
	ring := e.Shard(e.ShardFor(attackPort)).Ring()
	deadline := time.Now().Add(100 * time.Millisecond)
	for time.Now().Before(deadline) {
		for i := 0; i < 64; i++ {
			ring.Push(Item{Pkt: sg.Next(), InPort: attackPort})
		}
		time.Sleep(time.Millisecond)
	}
	<-done
	e.Stop()

	if !e.Attributor().Blamed(1, attackPort) {
		t.Fatal("attack port not blamed")
	}
	if e.Attributor().Blamed(1, benignPort) {
		t.Fatal("benign port blamed")
	}
}

// TestLatQuantileMonotone sanity-checks the octave histogram math.
func TestLatQuantileMonotone(t *testing.T) {
	var h latHist
	for i := 1; i <= 1000; i++ {
		h.observe(time.Duration(i) * time.Microsecond)
	}
	var merged [latBuckets]uint64
	h.addInto(&merged)
	p50 := latQuantile(&merged, 0.50)
	p99 := latQuantile(&merged, 0.99)
	if !(p50 > 0 && p50 <= p99) {
		t.Fatalf("p50=%v p99=%v", p50, p99)
	}
	if p99 > 2*time.Millisecond {
		t.Fatalf("p99=%v outside the sample range", p99)
	}
	var empty [latBuckets]uint64
	if latQuantile(&empty, 0.99) != 0 {
		t.Fatal("empty histogram must yield 0")
	}
}
