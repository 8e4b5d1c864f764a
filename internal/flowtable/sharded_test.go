package flowtable

import (
	"testing"
	"time"

	"floodguard/internal/netpkt"
	"floodguard/internal/openflow"
)

// TestShardedBroadcastBookkeeping pins the routing key and the
// documented divergence: Owner sends a wildcard-in_port match to every
// partition and a pinned one to partition in_port%N alone, and a
// broadcast rule is physically present once per partition, so
// RuleCount counts the copies. Routing a flow_mod by Owner is
// rtc.Engine.Apply's job; its tests hold the routed table to a plain one.
func TestShardedBroadcastBookkeeping(t *testing.T) {
	now := time.Date(2015, 6, 22, 0, 0, 0, 0, time.UTC)
	gen := netpkt.NewSpoofGen(3, netpkt.FloodUDP, 0)
	pkt := gen.Next()
	s := NewSharded(4, 0)

	wild := openflow.FlowMod{
		Match:    openflow.ExactFrom(&pkt, 1),
		Command:  openflow.FlowAdd,
		Priority: 10,
		Actions:  []openflow.Action{openflow.Output(2)},
	}
	wild.Match.Wildcards |= openflow.WildInPort
	if _, owned := s.Owner(&wild.Match); owned {
		t.Fatal("a wildcard-in_port match has an owning partition, want a broadcast")
	}
	for i := 0; i < s.N(); i++ {
		if _, err := s.Partition(i).Apply(wild, now); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.RuleCount(); got != 4 {
		t.Fatalf("broadcast rule count = %d, want one copy per partition (4)", got)
	}

	pin := openflow.FlowMod{
		Match:    openflow.ExactFrom(&pkt, 6),
		Command:  openflow.FlowAdd,
		Priority: 10,
		Actions:  []openflow.Action{openflow.Output(2)},
	}
	owner, owned := s.Owner(&pin.Match)
	if !owned || owner != 6%4 {
		t.Fatalf("owner of in_port 6 = %d/%v, want %d/true", owner, owned, 6%4)
	}
	if _, err := s.Partition(owner).Apply(pin, now); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.N(); i++ {
		want := 1
		if i == owner {
			want = 2
		}
		if got := s.Partition(i).RuleCount(); got != want {
			t.Fatalf("partition %d rule count = %d, want %d", i, got, want)
		}
	}
	if got := s.RuleCount(); got != 5 {
		t.Fatalf("rule count = %d, want 5", got)
	}
}
