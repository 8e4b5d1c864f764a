package attrib

// Heal-after-calm under a rotating-source attacker. Rotating the spoofed
// source every packet is the classic dodge against source-granular
// sketches: no single address ever accumulates enough mass to become a
// heavy hitter. Port-granular CUSUM must still blame the ingress port,
// and once the flood stops the blame must clear in exactly HealWindows
// calm windows — never stranding the benign port that shared the switch
// throughout. This is the unit-level contract
// behind the soak engine's rotate profile and the selective-migration
// reconciliation loop (which un-migrates a port the moment its blame
// heals).

import (
	"testing"

	"floodguard/internal/dpcache"
	"floodguard/internal/netpkt"
)

// rotPkt is one attack packet from the i-th spoofed source (TEST-NET-2
// and beyond — the rotation never repeats an address in this test).
func rotPkt(i uint32) *netpkt.Packet {
	return &netpkt.Packet{
		EthType: netpkt.EtherTypeIPv4,
		NwSrc:   netpkt.MustIPv4("198.51.100.0") + netpkt.IPv4(i),
		NwDst:   netpkt.MustIPv4("10.0.0.2"),
		NwProto: netpkt.ProtoTCP,
	}
}

func TestHealAfterCalmUnderRotatingSource(t *testing.T) {
	cfg := testConfig() // floor 10 pps, CUSUM 30/2, HealWindows 3
	a := New(cfg)

	var src uint32
	attackWindow := func() []Verdict {
		a.ObservePacket(1, 1, pktFrom("10.0.0.1")) // benign port 1: 10 pps
		for j := 0; j < 20; j++ {                  // attack port 3: 200 pps
			a.ObservePacket(1, 3, rotPkt(src))
			src++
		}
		return a.Roll(window)
	}

	blamedAt := -1
	for w := 0; w < 10; w++ {
		attackWindow()
		if blamedAt < 0 && a.Blamed(1, 3) {
			blamedAt = w
		}
	}
	if blamedAt < 0 {
		t.Fatal("rotating-source flood never blamed: port CUSUM must be source-agnostic")
	}
	if a.Blamed(1, 1) {
		t.Fatal("benign port blamed during the rotating-source flood")
	}
	// No rotated source owns enough of the stream to be a heavy hitter, so
	// a rotated address arriving on the *unblamed* port stays benign even
	// while the blamed port is shedding.
	if h := a.Hint(1, 1, rotPkt(src-1)); h != dpcache.HintBenign {
		t.Fatalf("rotated source on benign port: hint = %d, want benign", h)
	}
	if h := a.Hint(1, 3, rotPkt(src)); h != dpcache.HintSuspect {
		t.Fatalf("blamed port: hint = %d, want suspect", h)
	}

	// Flood stops; benign chatter continues. Blame must survive the first
	// HealWindows-1 calm windows and clear on the HealWindows-th — the
	// deadline the soak liveness checker and core.Policy's selective
	// reconciliation rely on.
	for i := 0; i < cfg.HealWindows-1; i++ {
		a.ObservePacket(1, 1, pktFrom("10.0.0.1"))
		a.Roll(window)
		if !a.Blamed(1, 3) {
			t.Fatalf("healed after only %d calm windows, want %d", i+1, cfg.HealWindows)
		}
	}
	a.ObservePacket(1, 1, pktFrom("10.0.0.1"))
	a.Roll(window)
	if a.Blamed(1, 3) {
		t.Fatalf("still blamed %d calm windows after the rotating flood stopped", cfg.HealWindows)
	}
	if a.Blamed(1, 1) {
		t.Fatal("benign port stranded: blamed after the attack healed")
	}
	if len(a.Suspects(1)) != 0 {
		t.Fatalf("Suspects = %v after heal, want none", a.Suspects(1))
	}
	// Post-heal: nothing is blamed, so even the old rotated addresses are
	// benign again everywhere.
	if h := a.Hint(1, 3, rotPkt(0)); h != dpcache.HintBenign {
		t.Fatalf("post-heal hint = %d, want benign", h)
	}
}

// TestRotatingSourceRelapseReblames closes the loop: a rotating attacker
// that returns after healing must be re-blamed from a cold CUSUM — the
// heal must reset the excursion, not merely mask the verdict.
func TestRotatingSourceRelapseReblames(t *testing.T) {
	a := New(testConfig())
	var src uint32
	burst := func(windows int) {
		for w := 0; w < windows; w++ {
			for j := 0; j < 20; j++ {
				a.ObservePacket(1, 3, rotPkt(src))
				src++
			}
			a.Roll(window)
		}
	}
	calm := func(windows int) {
		for w := 0; w < windows; w++ {
			a.Roll(window)
		}
	}
	burst(5)
	if !a.Blamed(1, 3) {
		t.Fatal("first rotating burst not blamed")
	}
	calm(3)
	if a.Blamed(1, 3) {
		t.Fatal("not healed after the calm streak")
	}
	burst(5)
	if !a.Blamed(1, 3) {
		t.Fatal("relapsed rotating burst not re-blamed")
	}
}
