package dpcache

import (
	"testing"
	"time"

	"floodguard/internal/netpkt"
	"floodguard/internal/netsim"
)

// nullSink swallows deliveries without touching the engine — the replay
// benches measure the cache, not a consumer.
type nullSink struct{ emitted int }

func (s *nullSink) CacheEmit(origin uint64, origInPort uint16, pkt netpkt.Packet, queued time.Duration) {
	s.emitted++
}

// flipHinter alternates verdicts without state, so the hinter bench
// exercises both sides of the WRR split at zero classification cost.
type flipHinter struct{ n int }

func (h *flipHinter) Hint(origin uint64, inPort uint16, pkt *netpkt.Packet) uint8 {
	h.n++
	if h.n%4 == 0 {
		return HintSuspect
	}
	return HintBenign
}

// replayFixture builds a cache with warm queues (so pops never run dry
// mid-iteration) and the tagged packets to keep feeding it.
func replayFixture(hinter bool) (*Cache, *nullSink, []netpkt.Packet) {
	sink := &nullSink{}
	c := New(netsim.NewEngine(), Config{QueueCapacity: 1024, ProcessingDelay: 0}, sink)
	if hinter {
		c.SetHinter(&flipHinter{})
	}
	g := netpkt.NewSpoofGen(1, netpkt.FloodMixed, 0)
	pkts := make([]netpkt.Packet, 256)
	for i := range pkts {
		pkts[i] = g.Next()
		pkts[i].NwTOS = EncodeInPortTOS(uint16(i % 8))
	}
	for i := 0; i < 64; i++ {
		c.Ingest(1, pkts[i])
	}
	return c, sink, pkts
}

// BenchmarkCacheReplay measures one ingest + one scheduled delivery per
// iteration, with and without an attribution hinter. Both paths must be
// allocation-free: the no-hinter case proves the WRR short-circuit pays
// nothing over the legacy single-path round-robin, and the hinter case
// proves the benign/suspect split itself never allocates per packet.
func BenchmarkCacheReplay(b *testing.B) {
	for _, mode := range []string{"no-hinter", "hinter"} {
		b.Run(mode, func(b *testing.B) {
			c, sink, pkts := replayFixture(mode == "hinter")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Ingest(1, pkts[i%len(pkts)])
				c.emitOne()
			}
			b.StopTimer()
			if sink.emitted == 0 {
				b.Fatal("nothing delivered")
			}
		})
	}
}

// TestSuspectBacklogDrainsWithoutHinter: packets classed suspect while a
// hinter was installed must still be served after the hinter is removed
// (the weighted schedule serves suspects whenever the benign side is
// empty).
func TestSuspectBacklogDrainsWithoutHinter(t *testing.T) {
	eng := netsim.NewEngine()
	sink := &nullSink{}
	c := New(eng, Config{QueueCapacity: 64, ProcessingDelay: 0}, sink)

	c.SetHinter(hinterFunc(func(origin uint64, inPort uint16, pkt *netpkt.Packet) uint8 {
		return HintSuspect
	}))
	g := netpkt.NewSpoofGen(2, netpkt.FloodMixed, 0)
	for i := 0; i < 10; i++ {
		p := g.Next()
		p.NwTOS = EncodeInPortTOS(3)
		c.Ingest(1, p)
	}
	if s := c.Stats(); s.SuspectBacklog != 10 {
		t.Fatalf("suspect backlog = %d, want 10", s.SuspectBacklog)
	}

	c.SetHinter(nil)
	for i := 0; i < 10; i++ {
		c.emitOne()
	}
	if !c.Drained() {
		t.Fatalf("suspect leftovers not drained: %+v", c.Stats())
	}
	if sink.emitted != 10 {
		t.Fatalf("delivered %d, want 10", sink.emitted)
	}
}

// hinterFunc adapts a function to the Hinter interface.
type hinterFunc func(origin uint64, inPort uint16, pkt *netpkt.Packet) uint8

func (f hinterFunc) Hint(origin uint64, inPort uint16, pkt *netpkt.Packet) uint8 {
	return f(origin, inPort, pkt)
}
