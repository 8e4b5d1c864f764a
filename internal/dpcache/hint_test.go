package dpcache

import (
	"testing"
	"time"

	"floodguard/internal/netpkt"
	"floodguard/internal/netsim"
)

// srcHinter blames one source address, mirroring how the attribution
// engine classifies by heavy-hitter source.
type srcHinter struct{ suspect netpkt.IPv4 }

func (h srcHinter) Hint(origin uint64, inPort uint16, pkt *netpkt.Packet) uint8 {
	if pkt.NwSrc == h.suspect {
		return HintSuspect
	}
	return HintBenign
}

// blamed is the hinter every hinted test installs: 10.0.0.66 is the
// suspect source.
var blamed = srcHinter{suspect: netpkt.MustIPv4("10.0.0.66")}

// hintCollect records deliveries with the verdict blamed gives each
// delivered packet. The verdict is a pure function of the source
// address, so it is the one the cache filed the packet under at ingest.
type hintCollect struct {
	collect
	hints []uint8
}

func (c *hintCollect) CacheEmit(origin uint64, origInPort uint16, pkt netpkt.Packet, queued time.Duration) {
	c.hints = append(c.hints, blamed.Hint(origin, origInPort, &pkt))
	c.collect.CacheEmit(origin, origInPort, pkt, queued)
}

func fromSrc(src string, inPort uint16) netpkt.Packet {
	p := tagged(netpkt.ProtoUDP, inPort, 80)
	p.NwSrc = netpkt.MustIPv4(src)
	return p
}

func TestHintedIngestRoutesToSuspectQueues(t *testing.T) {
	eng := netsim.NewEngine()
	sink := &hintCollect{}
	c := New(eng, Config{QueueCapacity: 16, InitialRatePPS: 0}, sink)
	c.SetHinter(blamed)

	c.Ingest(1, fromSrc("10.0.0.66", 3)) // suspect
	c.Ingest(1, fromSrc("10.0.0.1", 1))  // benign
	c.Ingest(1, fromSrc("10.0.0.66", 3)) // suspect

	s := c.Stats()
	if s.SuspectBacklog != 2 {
		t.Fatalf("SuspectBacklog = %d, want 2", s.SuspectBacklog)
	}
	if s.Backlog != 3 {
		t.Fatalf("Backlog = %d, want 3", s.Backlog)
	}
	if s.PerQueue[QueueUDP] != 3 {
		t.Fatalf("PerQueue[udp] = %d, want 3 (combined)", s.PerQueue[QueueUDP])
	}
}

func TestWeightedRoundRobinRatio(t *testing.T) {
	eng := netsim.NewEngine()
	sink := &hintCollect{}
	c := New(eng, Config{QueueCapacity: 256, InitialRatePPS: 1000, BenignWeight: 4}, sink)
	c.SetHinter(blamed)
	c.Start()
	defer c.Stop()

	// Deep backlog on both sides before the scheduler runs.
	for i := 0; i < 100; i++ {
		c.Ingest(1, fromSrc("10.0.0.66", 3))
		c.Ingest(1, fromSrc("10.0.0.1", 1))
	}
	// 50 scheduler slots: expect a 4:1 benign:suspect service split.
	eng.RunFor(50 * time.Millisecond)

	var benign, suspect int
	for _, h := range sink.hints {
		if h == HintSuspect {
			suspect++
		} else {
			benign++
		}
	}
	if benign+suspect == 0 {
		t.Fatal("no deliveries")
	}
	if benign < suspect*3 || suspect == 0 {
		t.Fatalf("service split benign=%d suspect=%d, want ~4:1 with both served", benign, suspect)
	}
	st := c.Stats()
	if st.BenignServed != uint64(benign) || st.SuspectServed != uint64(suspect) {
		t.Fatalf("served counters (%d, %d) disagree with sink (%d, %d)",
			st.BenignServed, st.SuspectServed, benign, suspect)
	}
}

func TestSuspectSideYieldsWhenBenignEmpty(t *testing.T) {
	eng := netsim.NewEngine()
	sink := &hintCollect{}
	c := New(eng, Config{QueueCapacity: 64, InitialRatePPS: 1000}, sink)
	c.SetHinter(blamed)
	c.Start()
	defer c.Stop()

	for i := 0; i < 10; i++ {
		c.Ingest(1, fromSrc("10.0.0.66", 3))
	}
	eng.RunFor(100 * time.Millisecond)

	if len(sink.hints) != 10 {
		t.Fatalf("delivered %d, want all 10 despite empty benign side", len(sink.hints))
	}
	for _, h := range sink.hints {
		if h != HintSuspect {
			t.Fatalf("hint %d, want HintSuspect", h)
		}
	}
}

func TestSplitConservation(t *testing.T) {
	eng := netsim.NewEngine()
	sink := &hintCollect{}
	c := New(eng, Config{QueueCapacity: 8, InitialRatePPS: 200}, sink)
	c.SetHinter(blamed)
	c.Start()
	defer c.Stop()

	// Overflow both sides while the scheduler drains slowly.
	for i := 0; i < 50; i++ {
		c.Ingest(1, fromSrc("10.0.0.66", 3))
		c.Ingest(1, fromSrc("10.0.0.1", 1))
	}
	eng.RunFor(100 * time.Millisecond)

	s := c.Stats()
	if s.Enqueued != s.Emitted+s.Dropped+uint64(s.Backlog) {
		t.Fatalf("conservation violated: enq=%d emit=%d drop=%d backlog=%d",
			s.Enqueued, s.Emitted, s.Dropped, s.Backlog)
	}
	if s.Dropped != s.BenignDropped+s.SuspectDropped {
		t.Fatalf("drop split inconsistent: %d != %d + %d", s.Dropped, s.BenignDropped, s.SuspectDropped)
	}
	if s.SuspectDropped == 0 {
		t.Fatal("expected suspect-side overflow drops")
	}
}

func TestNoHinterBehavesAsBefore(t *testing.T) {
	eng := netsim.NewEngine()
	sink := &collect{}
	c := New(eng, Config{QueueCapacity: 16, InitialRatePPS: 1000}, sink)
	c.Start()
	defer c.Stop()

	for i := uint16(1); i <= 5; i++ {
		c.Ingest(0, tagged(netpkt.ProtoUDP, i, 1000+i))
	}
	eng.RunFor(time.Second)

	if len(sink.packets) != 5 {
		t.Fatalf("emitted %d, want 5", len(sink.packets))
	}
	s := c.Stats()
	if s.SuspectBacklog != 0 || s.SuspectServed != 0 || s.SuspectDropped != 0 {
		t.Fatalf("suspect-side accounting nonzero without hinter: %+v", s)
	}
	if s.BenignServed != 5 {
		t.Fatalf("BenignServed = %d, want 5", s.BenignServed)
	}
}

func TestObserverSeesIngest(t *testing.T) {
	eng := netsim.NewEngine()
	sink := &collect{}
	c := New(eng, Config{QueueCapacity: 16, InitialRatePPS: 0}, sink)

	var seen []uint16
	c.SetObserver(func(origin uint64, inPort uint16, pkt *netpkt.Packet) {
		if pkt.NwTOS != 0 {
			panic("observer saw tagged TOS")
		}
		seen = append(seen, inPort)
	})
	c.Ingest(7, tagged(netpkt.ProtoTCP, 5, 80))
	c.Ingest(7, tagged(netpkt.ProtoTCP, 9, 80))

	if len(seen) != 2 || seen[0] != 5 || seen[1] != 9 {
		t.Fatalf("observer saw %v, want [5 9]", seen)
	}
	_ = eng
}
