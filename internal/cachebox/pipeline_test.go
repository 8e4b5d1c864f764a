package cachebox

import (
	"testing"

	"floodguard/internal/dpcache"
	"floodguard/internal/netpkt"
)

// TestRealTimeMigrationPipeline wires the packet-migration data path
// over real TCP sockets from the switch's cache port onward: frames
// TOS-tagged the way a migration rule's set_nw_tos action tags them go
// to a Shim, which relays them to the standalone cache Box; the Box
// round-robins and rate-limits them back to the agent endpoint, which
// recovers the origin datapath and INPORT.
func TestRealTimeMigrationPipeline(t *testing.T) {
	const (
		dpid   = uint64(0x99)
		inPort = uint16(2)
	)

	col := &agentCollector{}
	agent, agentAddr, err := ListenAgent("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	agent.SetHooks(col.onReplay, nil, nil)
	defer agent.Close()

	box, ingestAddr, err := Start(Config{
		AgentAddr:  agentAddr.String(),
		IngestAddr: "127.0.0.1:0",
		Cache:      dpcache.Config{QueueCapacity: 1024, InitialRatePPS: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer box.Close()

	shim, err := NewShim(ingestAddr.String(), dpid)
	if err != nil {
		t.Fatal(err)
	}
	defer shim.Close()

	// A spoofed flood that missed the table on port 2 and was migrated.
	gen := netpkt.NewSpoofGen(12, netpkt.FloodMixed, 48)
	for i := 0; i < 50; i++ {
		pkt := gen.Next()
		pkt.NwTOS = dpcache.EncodeInPortTOS(inPort)
		shim.Deliver(pkt)
	}
	waitFor(t, func() bool { return col.replayCount() == 50 }, "50 replays through the pipeline")

	col.mu.Lock()
	defer col.mu.Unlock()
	for i, r := range col.replays {
		if r.dpid != dpid {
			t.Fatalf("replay %d origin = %#x, want %#x", i, r.dpid, dpid)
		}
		if r.inPort != inPort {
			t.Fatalf("replay %d inPort = %d, want %d (TOS tag round trip)", i, r.inPort, inPort)
		}
		if r.pkt.NwTOS != 0 {
			t.Fatalf("replay %d TOS tag not stripped", i)
		}
	}
}
