package attrib

import (
	"testing"
	"time"

	"floodguard/internal/journal"
	"floodguard/internal/netpkt"
)

// TestHealVerdictCarriesEvidence drives one port through attack →
// blame → calm → heal and asserts the heal-window verdict surfaces
// the calm-window count and the last-blamed rate (the evidence
// `fganalyze journal --explain` renders).
func TestHealVerdictCarriesEvidence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CUSUMThreshold = 30
	cfg.CUSUMDrift = 2
	cfg.SuspectRatePPS = 10
	cfg.HealWindows = 3
	a := New(cfg)
	j := journal.ForEngine(0)
	a.SetJournal(j.AttribRec())

	window := time.Second
	feed := func(n int) {
		for i := 0; i < n; i++ {
			a.ObservePacket(1, 7, nil)
		}
	}
	verdictFor := func(vs []Verdict) *Verdict {
		for i := range vs {
			if vs[i].Port == 7 {
				return &vs[i]
			}
		}
		t.Fatal("no verdict for port 7")
		return nil
	}

	// Two quiet windows establish a baseline, then a flood.
	feed(2)
	a.Roll(window)
	feed(2)
	a.Roll(window)
	var blamedAt float64
	for w := 0; w < 5; w++ {
		feed(100)
		v := verdictFor(a.Roll(window))
		if v.Suspect {
			blamedAt = v.RatePPS
			break
		}
	}
	if blamedAt == 0 {
		t.Fatal("flood never blamed")
	}

	// Calm windows until heal; the healing verdict must carry evidence.
	var healV *Verdict
	for w := 0; w < 10 && healV == nil; w++ {
		feed(1)
		if v := verdictFor(a.Roll(window)); v.Healed {
			kept := *v // Roll's slice is reused by the next Roll
			healV = &kept
		}
	}
	if healV == nil {
		t.Fatal("port never healed")
	}
	if healV.Suspect {
		t.Fatal("healed verdict still marked suspect")
	}
	if healV.CalmWindows != cfg.HealWindows {
		t.Fatalf("CalmWindows = %d, want %d", healV.CalmWindows, cfg.HealWindows)
	}
	if healV.LastBlamedRate < 50 {
		t.Fatalf("LastBlamedRate = %.1f, want the flood rate (~100)", healV.LastBlamedRate)
	}

	// Non-heal verdicts must leave the evidence fields zero.
	feed(1)
	if v := verdictFor(a.Roll(window)); v.Healed || v.CalmWindows != 0 || v.LastBlamedRate != 0 {
		t.Fatalf("calm verdict leaked heal evidence: %+v", v)
	}

	// The journal saw the same chain: suspect* -> blame -> heal, and the
	// heal event carries the same evidence payload.
	j.Drain()
	evs := j.Events()
	var sawBlame bool
	var heal *journal.Event
	for i := range evs {
		switch evs[i].Kind {
		case journal.KindBlame:
			sawBlame = true
			if heal != nil {
				t.Fatal("blame after heal in a single episode")
			}
		case journal.KindHeal:
			heal = &evs[i]
		}
	}
	if !sawBlame || heal == nil {
		t.Fatalf("journal missing blame/heal: %d events", len(evs))
	}
	if heal.A != float64(cfg.HealWindows) {
		t.Fatalf("heal event calm windows = %.0f, want %d", heal.A, cfg.HealWindows)
	}
	if heal.B != healV.LastBlamedRate {
		t.Fatalf("heal event last-blamed rate %.1f != verdict %.1f", heal.B, healV.LastBlamedRate)
	}
}

// TestRollOrderDeterministic: verdicts (and therefore journal events)
// come out in sorted (dpid, port) order regardless of insertion order.
func TestRollOrderDeterministic(t *testing.T) {
	a := New(DefaultConfig())
	var pkt netpkt.Packet
	for _, p := range []uint16{9, 3, 12, 1, 7} {
		a.ObservePacket(1, p, &pkt)
	}
	a.ObservePacket(2, 1, &pkt) // higher dpid sorts after all dpid-1 ports
	vs := a.Roll(time.Second)
	want := []struct {
		dpid uint64
		port uint16
	}{{1, 1}, {1, 3}, {1, 7}, {1, 9}, {1, 12}, {2, 1}}
	if len(vs) != len(want) {
		t.Fatalf("got %d verdicts, want %d", len(vs), len(want))
	}
	for i, v := range vs {
		if v.DPID != want[i].dpid || v.Port != want[i].port {
			t.Fatalf("verdict %d = (%d,%d), want (%d,%d)", i, v.DPID, v.Port, want[i].dpid, want[i].port)
		}
	}
}
