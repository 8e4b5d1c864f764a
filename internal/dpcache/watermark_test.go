package dpcache

import (
	"testing"
	"time"

	"floodguard/internal/netpkt"
	"floodguard/internal/netsim"
)

// TestBacklogHighWatermark pins the MaxBacklog gauge the soak harness
// uses as its RSS proxy: it must track the peak simultaneous queue
// depth, not the current one, and must survive the backlog draining.
func TestBacklogHighWatermark(t *testing.T) {
	eng := netsim.NewEngine()
	sink := &collect{}
	c := New(eng, Config{QueueCapacity: 64, InitialRatePPS: 1000}, sink)
	c.Start()
	defer c.Stop()

	// Replay paused: ten packets pile up and the watermark follows.
	c.SetRate(0)
	for i := uint16(1); i <= 10; i++ {
		c.Ingest(0, tagged(netpkt.ProtoUDP, i, 2000+i))
	}
	eng.RunFor(time.Second)
	st := c.Stats()
	if st.Backlog != 10 || st.MaxBacklog != 10 {
		t.Fatalf("paused: backlog=%d max=%d, want 10/10", st.Backlog, st.MaxBacklog)
	}

	// Drain fully: the live backlog returns to zero, the watermark stays.
	c.SetRate(1000)
	eng.RunFor(time.Second)
	st = c.Stats()
	if st.Backlog != 0 {
		t.Fatalf("drained: backlog=%d, want 0", st.Backlog)
	}
	if st.MaxBacklog != 10 {
		t.Fatalf("drained: max backlog=%d, want the peak 10 to persist", st.MaxBacklog)
	}

	// A smaller later burst must not move the watermark; a larger one must.
	c.SetRate(0)
	for i := uint16(1); i <= 4; i++ {
		c.Ingest(0, tagged(netpkt.ProtoUDP, i, 3000+i))
	}
	eng.RunFor(time.Second)
	if st = c.Stats(); st.MaxBacklog != 10 {
		t.Fatalf("small burst: max backlog=%d, want 10", st.MaxBacklog)
	}
	for i := uint16(1); i <= 9; i++ {
		c.Ingest(0, tagged(netpkt.ProtoUDP, i, 4000+i))
	}
	eng.RunFor(time.Second)
	if st = c.Stats(); st.MaxBacklog != 13 {
		t.Fatalf("larger burst: max backlog=%d, want 13", st.MaxBacklog)
	}
}
