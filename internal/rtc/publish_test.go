package rtc

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"floodguard/internal/netpkt"
	"floodguard/internal/tcpguard"
)

// published reads what readers of shard s see.
func (s *Shard) published() shardCounts {
	return shardCounts{
		forwarded:  s.pub.forwarded.Load(),
		misses:     s.pub.misses.Load(),
		cacheDrops: s.pub.cacheDrops.Load(),
		synAcked:   s.pub.synAcked.Load(),
		guardDrops: s.pub.guardDrops.Load(),
	}
}

// TestCountersPublishedPerBatch pins the counter contract white-box, at
// one shard per CPU (make test-cpus runs it at -cpu 1,2,4): inside a
// batch the published counters and the shard→cache ring the consumer
// sees do not move; after the batch's publish they equal the exact
// counts, and every committed slot is a tagged miss. The ring is small,
// so later batches also drop, and the drops are counted exactly too.
func TestCountersPublishedPerBatch(t *testing.T) {
	cfg := testEngineConfig(runtime.GOMAXPROCS(0))
	const ringCap = 64
	cfg.CacheRingCapacity = ringCap
	cfg.TCPGuard = &tcpguard.Config{Secret: 7}
	e := New(cfg)
	sg := netpkt.NewSpoofGen(9, netpkt.FloodUDP, 0)
	for i, s := range e.shards {
		port := uint16(i + len(e.shards)) // owned by shard i, never port 0
		benign := sg.Next()
		if err := e.Apply(exactMod(&benign, port, 2)); err != nil {
			t.Fatal(err)
		}
		var want shardCounts
		inRing := 0 // slots committed or reserved: the ring starts empty and nothing pops
		now := time.Now()
		for batch := 0; batch < 8; batch++ {
			before, ringBefore := s.published(), s.toCache.Len()
			for k := 0; k < 40; k++ {
				var it Item
				switch k % 4 {
				case 0:
					it = Item{Pkt: benign, InPort: port}
					want.forwarded++
				case 1: // a spoofed SYN: the guard answers it
					it = Item{Pkt: sg.Next(), InPort: port}
					it.Pkt.NwProto, it.Pkt.TCPFlags = netpkt.ProtoTCP, netpkt.TCPSyn
					want.misses++
					want.synAcked++
				case 2: // a bare ACK with no cookie: the guard drops it
					it = Item{Pkt: sg.Next(), InPort: port}
					it.Pkt.NwProto, it.Pkt.TCPFlags = netpkt.ProtoTCP, netpkt.TCPAck
					want.misses++
					want.guardDrops++
				default: // a UDP miss: handed to the cache, or dropped on a full ring
					it = Item{Pkt: sg.Next(), InPort: port}
					want.misses++
					if inRing == ringCap {
						want.cacheDrops++
					} else {
						inRing++
					}
				}
				s.processOne(&it, now)
				if got := s.published(); got != before {
					t.Fatalf("shard %d batch %d packet %d: published counters moved inside the batch: %+v -> %+v",
						i, batch, k, before, got)
				}
				if got := s.toCache.Len(); got != ringBefore {
					t.Fatalf("shard %d batch %d packet %d: the consumer saw %d ring slots before the commit, want %d",
						i, batch, k, got, ringBefore)
				}
			}
			s.publish()
			if got := s.published(); got != want || s.n != want {
				t.Fatalf("shard %d batch %d: published %+v, owned %+v, want %+v", i, batch, got, s.n, want)
			}
			if got := s.toCache.Len(); got != inRing {
				t.Fatalf("shard %d batch %d: ring holds %d after the commit, want %d", i, batch, got, inRing)
			}
		}
		if want.cacheDrops == 0 {
			t.Fatalf("shard %d: the 64-slot ring never filled", i)
		}
		buf := make([]CacheItem, 64)
		for n := s.toCache.PopBatch(buf); n > 0; n = s.toCache.PopBatch(buf) {
			for _, ci := range buf[:n] {
				if ci.Origin != datapathID || ci.Pkt.NwProto != netpkt.ProtoUDP || ci.Pkt.NwTOS == 0 {
					t.Fatalf("shard %d: committed slot holds %+v, want a TOS-tagged UDP miss", i, ci)
				}
			}
		}
	}
}

// TestCountersUnderScraper runs the wall-clock engine with a producer
// per shard while a scraper reads Snapshot and Counters flat out: every
// published counter only ever rises, and once every accepted frame was
// observed processed — with no Stop — the counters are exact and the
// miss equation closes.
func TestCountersUnderScraper(t *testing.T) {
	cfg := testEngineConfig(runtime.GOMAXPROCS(0))
	cfg.TCPGuard = &tcpguard.Config{Secret: 11}
	e := New(cfg)
	e.Start()
	defer e.Stop()

	var stop atomic.Bool
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		last := make([]ShardStats, e.Shards())
		for !stop.Load() {
			s := e.Snapshot()
			for i, st := range s.Shards {
				l := last[i]
				if st.Forwarded < l.Forwarded || st.Misses < l.Misses || st.CacheDrops < l.CacheDrops ||
					st.SynAcked < l.SynAcked || st.GuardDropped < l.GuardDropped {
					t.Errorf("shard %d counters ran backwards: %+v -> %+v", i, l, st)
					return
				}
				last[i] = st
			}
			if p, _, _, _ := e.Counters(); p < s.Processed {
				t.Errorf("Counters read %d processed after Snapshot read %d", p, s.Processed)
				return
			}
		}
	}()

	benign, spoofed := drive(t, e, 20000, 0, 0)
	deadline := time.Now().Add(10 * time.Second)
	for {
		p, _, _, _ := e.Counters()
		st := e.CacheStats()
		s := e.Snapshot()
		if p == benign+spoofed && s.Misses == st.Enqueued+s.CacheDrops+s.SynAcked+s.GuardDropped {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("not quiescent after 10s: processed %d of %d, snapshot %+v", p, benign+spoofed, s)
		}
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	scraper.Wait()

	s := e.Snapshot()
	if s.Forwarded != benign || s.Misses != spoofed {
		t.Fatalf("quiescent counters: forwarded %d misses %d, want %d and %d", s.Forwarded, s.Misses, benign, spoofed)
	}
	if s.SynAcked == 0 {
		t.Fatal("no spoofed SYN was answered: the guard terms went unexercised")
	}
}
