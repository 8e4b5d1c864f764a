package rtc

import (
	"fmt"
	"testing"
	"time"

	"floodguard/internal/netpkt"
	"floodguard/internal/openflow"
	"floodguard/internal/tcpguard"
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
// direct-path verdicts through their window merges. The flood lasts
// until the blame lands (bounded by boundedWait), not for a fixed time,
// so a loaded box that stretches the windows cannot let it heal first.
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

	stop, done := make(chan struct{}), make(chan struct{})
	go func() { // benign producer: sparse, all hits, for the whole flood
		defer close(done)
		ring := e.Shard(e.ShardFor(benignPort)).Ring()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ring.Push(Item{Pkt: benignPkt, InPort: benignPort})
			time.Sleep(2 * time.Millisecond)
		}
	}()
	sg := netpkt.NewSpoofGen(2, netpkt.FloodMixed, 0)
	ring := e.Shard(e.ShardFor(attackPort)).Ring()
	within(t, "the attack port to be blamed", func() bool {
		for i := 0; i < 64; i++ {
			ring.Push(Item{Pkt: sg.Next(), InPort: attackPort})
		}
		time.Sleep(time.Millisecond)
		return e.Attributor().Blamed(1, attackPort)
	})
	if e.Attributor().Blamed(1, benignPort) {
		t.Error("benign port blamed during the flood")
	}
	close(stop)
	<-done
	e.Stop()

	if e.Attributor().Blamed(1, benignPort) {
		t.Fatal("benign port blamed after Stop")
	}
}

// modePhases is TestManualMatchesWallClock's seeded input: the benign
// flows with their ports, and three phases of items over ports 1..8 —
// rule hits, spoofed UDP/ICMP misses, spoofed SYNs the guard answers and
// bare ACKs it drops. hits counts the items that forward, given that
// runMode deletes flow 0's rule for phase 1.
func modePhases() (flows []Item, phases [3][]Item, hits uint64) {
	bg := netpkt.NewSpoofGen(41, netpkt.FloodUDP, 0)
	for f := 0; f < 16; f++ {
		flows = append(flows, Item{Pkt: bg.Next(), InPort: uint16(1 + f%8)})
	}
	sg := netpkt.NewSpoofGen(42, netpkt.FloodMixed, 0)
	n := 0
	for ph := range phases {
		for i := 0; i < 1500; i++ {
			var it Item
			switch n++; {
			case n%16 == 0:
				it = Item{Pkt: sg.Next(), InPort: uint16(1 + n%8)}
				it.Pkt.NwProto, it.Pkt.TCPFlags = netpkt.ProtoTCP, netpkt.TCPAck
			case n%3 == 0:
				it = Item{Pkt: sg.Next(), InPort: uint16(1 + n%8)}
			default:
				f := n % len(flows)
				it = flows[f]
				if ph != 1 || f != 0 {
					hits++
				}
			}
			phases[ph] = append(phases[ph], it)
		}
	}
	return flows, phases, hits
}

// runMode feeds modePhases to one engine: the flows' rules installed
// before Start, flow 0 strict-deleted after the first phase and
// re-added after the second. Against the wall clock every phase is
// pushed through the ingress rings and waited out before the next
// Apply, so a mod lands between the same packets as it does in manual
// mode.
func runMode(t *testing.T, shards int, manual bool) (*Engine, Snapshot) {
	t.Helper()
	cfg := testEngineConfig(shards)
	cfg.Manual = manual
	cfg.RingCapacity, cfg.CacheRingCapacity = 8192, 8192 // no drops: a phase fits
	cfg.TCPGuard = &tcpguard.Config{Secret: 0xF100D}
	e := New(cfg)
	flows, phases, _ := modePhases()
	apply := func(m openflow.FlowMod) {
		t.Helper()
		if err := e.Apply(m); err != nil {
			t.Fatal(err)
		}
	}
	for i := range flows {
		apply(exactMod(&flows[i].Pkt, flows[i].InPort, 2))
	}
	del := exactMod(&flows[0].Pkt, flows[0].InPort, 2)
	del.Command, del.OutPort = openflow.FlowDeleteStrict, openflow.PortNone
	e.Start()
	injected := uint64(0)
	for ph, items := range phases {
		switch ph {
		case 1:
			apply(del)
		case 2:
			apply(exactMod(&flows[0].Pkt, flows[0].InPort, 2))
		}
		for i := range items {
			if !e.InjectItem(&items[i]) {
				t.Fatalf("manual=%v: ingress ring refused an item", manual)
			}
		}
		injected += uint64(len(items))
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Microsecond) {
			if p, _, _, _ := e.Counters(); p == injected {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("manual=%v: phase %d never drained", manual, ph)
			}
		}
	}
	e.Stop()
	return e, e.Snapshot()
}

// TestManualMatchesWallClock holds the two modes to one story: the same
// item sequence and Apply schedule through shard goroutines, ingress and
// shard→cache rings and Apply against running shards, and through the shard
// body on the caller, must leave the same per-shard forwarded and miss
// counts, the same split of misses into cache ingest, guard answers and
// guard drops, and the same rule count.
func TestManualMatchesWallClock(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			we, w := runMode(t, shards, false)
			me, m := runMode(t, shards, true)
			for i := range w.Shards {
				ws, ms := w.Shards[i], m.Shards[i]
				if ws.Forwarded != ms.Forwarded || ws.Misses != ms.Misses ||
					ws.SynAcked != ms.SynAcked || ws.GuardDropped != ms.GuardDropped {
					t.Errorf("shard %d: wall-clock %+v, manual %+v", i, ws, ms)
				}
			}
			if w.CacheDrops != 0 || m.CacheDrops != 0 {
				t.Errorf("ring drops: wall-clock %d, manual %d, want 0", w.CacheDrops, m.CacheDrops)
			}
			if w.Cache.Enqueued != m.Cache.Enqueued {
				t.Errorf("cache enqueued: wall-clock %d, manual %d", w.Cache.Enqueued, m.Cache.Enqueued)
			}
			for _, s := range []Snapshot{w, m} {
				if s.Misses != s.Cache.Enqueued+s.CacheDrops+s.SynAcked+s.GuardDropped {
					t.Errorf("miss conservation broken: %+v", s)
				}
			}
			if wr, mr := we.TableRules(), me.TableRules(); wr != mr || wr != 16 {
				t.Errorf("table rules: wall-clock %d, manual %d, want 16", wr, mr)
			}
			// Flow 0 missed for exactly the phase its rule was gone, and
			// every kind of item took its path.
			if _, _, hits := modePhases(); m.Forwarded != hits {
				t.Errorf("forwarded %d, want %d", m.Forwarded, hits)
			}
			if m.Cache.Enqueued == 0 || m.SynAcked == 0 || m.GuardDropped == 0 {
				t.Errorf("degenerate mix: %+v", m)
			}
		})
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
