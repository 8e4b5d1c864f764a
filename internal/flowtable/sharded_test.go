package flowtable

import (
	"math/rand"
	"testing"
	"time"

	"floodguard/internal/netpkt"
	"floodguard/internal/openflow"
)

// lookupKey reduces a lookup outcome to the fields the shard-count
// invariance property compares: miss/hit, the winning rule's identity,
// and what it would do to the packet.
type lookupKey struct {
	hit      bool
	priority uint16
	match    openflow.Match
	actions  string
}

func keyOf(e *Entry) lookupKey {
	if e == nil {
		return lookupKey{}
	}
	return lookupKey{
		hit:      true,
		priority: e.Priority,
		match:    e.Match.Normalized(),
		actions:  openflow.ActionsString(e.Actions),
	}
}

// TestShardedLookupShardCountInvariance is the partitioning soundness
// property: for random interleaved sequences of flow_mods (adds,
// strict and non-strict deletes, modifies — some pinning in_port, some
// wildcarding it for broadcast) and lookups, a Sharded table at 1, 2,
// and 4 partitions must return exactly the winner one plain Table
// returns, at every step of the sequence.
// Rule order, priority ties, and the per-partition broadcast copies
// must all collapse to the same serving behavior.
func TestShardedLookupShardCountInvariance(t *testing.T) {
	now := time.Date(2015, 6, 22, 0, 0, 0, 0, time.UTC)
	const nPorts = 8

	for trial := 0; trial < 60; trial++ {
		r := rand.New(rand.NewSource(int64(9000 + trial)))
		gen := netpkt.NewSpoofGen(int64(trial), netpkt.FloodMixed, 16)

		oracle := New(0)
		shardeds := []*Sharded{NewSharded(1, 0), NewSharded(2, 0), NewSharded(4, 0)}

		// A pool of sample packets so deletes/modifies/lookups revisit
		// installed matches instead of always missing.
		samples := make([]netpkt.Packet, 12)
		for i := range samples {
			samples[i] = gen.Next()
		}
		pick := func() netpkt.Packet {
			if r.Intn(4) == 0 {
				return gen.Next() // fresh, likely miss
			}
			return samples[r.Intn(len(samples))]
		}

		for step := 0; step < 300; step++ {
			if r.Intn(3) > 0 { // lookup twice as often as mutation
				pkt := pick()
				inPort := uint16(r.Intn(nPorts) + 1)
				want := keyOf(oracle.Lookup(&pkt, inPort, now, pkt.WireLen()))
				for _, s := range shardeds {
					got := keyOf(s.PartitionFor(inPort).Lookup(&pkt, inPort, now, pkt.WireLen()))
					if got != want {
						t.Fatalf("trial %d step %d shards=%d: lookup = %+v, oracle = %+v",
							trial, step, s.N(), got, want)
					}
				}
				continue
			}

			pkt := pick()
			m := openflow.ExactFrom(&pkt, uint16(r.Intn(nPorts)+1))
			if r.Intn(3) == 0 {
				m.Wildcards |= openflow.WildInPort // broadcast path
			}
			for _, bit := range []uint32{openflow.WildTpSrc, openflow.WildTpDst, openflow.WildNwTOS} {
				if r.Intn(3) == 0 {
					m.Wildcards |= bit
				}
			}
			fm := openflow.FlowMod{
				Match:    m,
				Priority: uint16(r.Intn(4) * 10),
				Actions:  []openflow.Action{openflow.Output(uint16(r.Intn(4) + 2))},
			}
			switch r.Intn(6) {
			case 0:
				fm.Command = openflow.FlowDeleteStrict
				fm.OutPort = openflow.PortNone
			default:
				fm.Command = openflow.FlowAdd
			}
			if _, err := oracle.Apply(fm, now); err != nil {
				t.Fatalf("trial %d step %d: oracle apply: %v", trial, step, err)
			}
			for _, s := range shardeds {
				if _, err := s.Apply(fm, now); err != nil {
					t.Fatalf("trial %d step %d shards=%d: apply: %v", trial, step, s.N(), err)
				}
			}
		}

		// Exhaustive sweep at the end: every sample packet from every
		// port must resolve identically after the whole mutation history.
		for _, pkt := range samples {
			pkt := pkt
			for inPort := uint16(1); inPort <= nPorts; inPort++ {
				want := keyOf(oracle.Lookup(&pkt, inPort, now, pkt.WireLen()))
				for _, s := range shardeds {
					got := keyOf(s.PartitionFor(inPort).Lookup(&pkt, inPort, now, pkt.WireLen()))
					if got != want {
						t.Fatalf("trial %d final sweep shards=%d port=%d: %+v, oracle %+v",
							trial, s.N(), inPort, got, want)
					}
				}
			}
		}
	}
}

// TestShardedBroadcastBookkeeping pins the documented divergences: a
// wildcard-in_port rule is physically present once per partition, and a
// broadcast delete reports one Removed per partition.
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
	if _, err := s.Apply(wild, now); err != nil {
		t.Fatal(err)
	}
	if got := s.RuleCount(); got != 4 {
		t.Fatalf("broadcast rule count = %d, want one copy per partition (4)", got)
	}
	for i := 0; i < s.N(); i++ {
		if s.Partition(i).RuleCount() != 1 {
			t.Fatalf("partition %d missing its broadcast copy", i)
		}
	}

	del := wild
	del.Command = openflow.FlowDeleteStrict
	del.OutPort = openflow.PortNone
	removed, err := s.Apply(del, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 4 {
		t.Fatalf("broadcast delete removed %d copies, want 4", len(removed))
	}
	if s.RuleCount() != 0 {
		t.Fatalf("rules remain after broadcast delete: %d", s.RuleCount())
	}

	// A concrete-in_port mutation routes to exactly one partition.
	pin := openflow.FlowMod{
		Match:    openflow.ExactFrom(&pkt, 6),
		Command:  openflow.FlowAdd,
		Priority: 10,
		Actions:  []openflow.Action{openflow.Output(2)},
	}
	if _, err := s.Apply(pin, now); err != nil {
		t.Fatal(err)
	}
	if owner, owned := s.Owner(&pin.Match); !owned || owner != 6%4 {
		t.Fatalf("owner of in_port 6 = %d/%v, want %d/true", func() int { o, _ := s.Owner(&pin.Match); return o }(), owned, 6%4)
	}
	for i := 0; i < s.N(); i++ {
		want := 0
		if i == 6%4 {
			want = 1
		}
		if got := s.Partition(i).RuleCount(); got != want {
			t.Fatalf("partition %d rule count = %d, want %d", i, got, want)
		}
	}
}
