package core

import (
	"testing"
	"time"

	"floodguard/internal/appir"
	"floodguard/internal/netpkt"
	"floodguard/internal/switchsim"
)

// sendUnknownFlow sends one packet from a brand-new host to an unlearned
// destination during defense and waits for the replay to be learned.
func sendUnknownFlow(b *bed, from *switchsim.Host) {
	pkt := netpkt.Packet{
		EthSrc: from.MAC, EthDst: netpkt.MustMAC("00:00:00:00:00:7e"),
		EthType: netpkt.EtherTypeIPv4,
		NwSrc:   from.IP, NwDst: netpkt.MustIPv4("10.0.0.126"),
		NwProto: netpkt.ProtoTCP, TpSrc: 4321, TpDst: 80, TCPFlags: netpkt.TCPSyn,
	}
	from.Send(pkt)
	b.eng.RunFor(2 * time.Second)
}

// TestINPORTTaggingPreservesLearning validates the paper's §IV.C.1 tag
// design: with per-port TOS tagging, a packet migrated through the cache
// is replayed with its ORIGINAL ingress port, so l2_learning learns the
// right location for the source.
func TestINPORTTaggingPreservesLearning(t *testing.T) {
	b := newBed(t, defaultTestConfig())
	b.flooder.Start(200)
	b.eng.RunFor(2 * time.Second)
	if b.guard.State() != StateDefense {
		t.Fatalf("state = %v", b.guard.State())
	}

	// Alice's brand-new flow to an unlearned destination is migrated on
	// port 1 and replayed; her binding must say port 1.
	sendUnknownFlow(b, b.alice)
	got, ok := b.l2.State.LookupTable("macToPort", appir.MACValue(b.alice.MAC))
	if !ok {
		t.Fatal("alice not (re)learned from the replay")
	}
	if got.U16() != alicePort {
		t.Errorf("learned port = %d, want %d (TOS tag preserved INPORT)", got.U16(), alicePort)
	}
}

// TestINPORTTagAblationPoisonsLearning is the counterpart: with the
// single untagged wildcard rule, the ingress port is lost — replays
// carry in_port 0 and the learning table is poisoned, exactly the
// failure mode the paper's tag avoids.
func TestINPORTTagAblationPoisonsLearning(t *testing.T) {
	cfg := defaultTestConfig()
	cfg.DisableINPORTTag = true
	b := newBed(t, cfg)
	b.flooder.Start(200)
	b.eng.RunFor(2 * time.Second)
	if b.guard.State() != StateDefense {
		t.Fatalf("state = %v", b.guard.State())
	}
	// Exactly one migration rule (the untagged wildcard).
	if got := migrationRuleCount(b.sw); got != 1 {
		t.Fatalf("migration rules = %d, want 1 (single wildcard)", got)
	}

	sendUnknownFlow(b, b.alice)
	got, ok := b.l2.State.LookupTable("macToPort", appir.MACValue(b.alice.MAC))
	if !ok {
		t.Fatal("alice not relearned at all")
	}
	if got.U16() == alicePort {
		t.Fatalf("learned port = %d; without the tag the true INPORT should be lost", got.U16())
	}
	if got.U16() != 0 {
		t.Errorf("learned port = %d, want 0 (decoded from the zeroed TOS)", got.U16())
	}
}
