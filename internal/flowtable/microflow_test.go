package flowtable

import (
	"testing"
	"time"

	"floodguard/internal/netpkt"
	"floodguard/internal/openflow"
)

func mfPacket(src, dst uint32, tpDst uint16) netpkt.Packet {
	return netpkt.Packet{
		EthSrc:  netpkt.MACFromUint64(uint64(src)),
		EthDst:  netpkt.MACFromUint64(uint64(dst)),
		EthType: netpkt.EtherTypeIPv4,
		NwSrc:   netpkt.IPv4(src),
		NwDst:   netpkt.IPv4(dst),
		NwProto: netpkt.ProtoUDP,
		TpSrc:   1000,
		TpDst:   tpDst,
	}
}

func mfAdd(t *testing.T, tbl *Table, p *netpkt.Packet, inPort uint16, prio uint16, mod func(*openflow.FlowMod), now time.Time) {
	t.Helper()
	fm := openflow.FlowMod{
		Match:    openflow.ExactFrom(p, inPort),
		Command:  openflow.FlowAdd,
		Priority: prio,
		Actions:  []openflow.Action{openflow.Output(2)},
	}
	if mod != nil {
		mod(&fm)
	}
	if _, err := tbl.Apply(fm, now); err != nil {
		t.Fatal(err)
	}
}

// prime installs a rule, performs a lookup to populate the microflow
// cache, and a second to confirm the cache is serving it.
func prime(t *testing.T, tbl *Table, p *netpkt.Packet, now time.Time) {
	t.Helper()
	if e := tbl.Lookup(p, 1, now, 64); e == nil {
		t.Fatal("prime: lookup missed")
	}
	before := tbl.Stats().MicroflowHits
	if e := tbl.Lookup(p, 1, now, 64); e == nil {
		t.Fatal("prime: second lookup missed")
	}
	if tbl.Stats().MicroflowHits != before+1 {
		t.Fatal("prime: second lookup did not hit the microflow cache")
	}
}

func TestMicroflowCacheInvalidation(t *testing.T) {
	now := time.Unix(1000, 0)
	pkt := mfPacket(0x0a000001, 0x0a000002, 80)

	tests := []struct {
		name string
		// mutate changes the table after the cache is primed; the
		// subsequent lookup at the returned time must miss (the cached
		// entry must not have survived).
		mutate func(t *testing.T, tbl *Table) time.Time
	}{
		{"flow-delete-strict", func(t *testing.T, tbl *Table) time.Time {
			if _, err := tbl.Apply(openflow.FlowMod{
				Match:    openflow.ExactFrom(&pkt, 1),
				Command:  openflow.FlowDeleteStrict,
				Priority: 10,
				OutPort:  openflow.PortNone,
			}, now); err != nil {
				t.Fatal(err)
			}
			return now
		}},
		{"flow-delete-wildcard", func(t *testing.T, tbl *Table) time.Time {
			if _, err := tbl.Apply(openflow.FlowMod{
				Match:   openflow.MatchAll(),
				Command: openflow.FlowDelete,
				OutPort: openflow.PortNone,
			}, now); err != nil {
				t.Fatal(err)
			}
			return now
		}},
		{"idle-timeout", func(t *testing.T, tbl *Table) time.Time {
			later := now.Add(time.Hour)
			if rm := tbl.Expire(later); len(rm) != 1 {
				t.Fatalf("Expire removed %d rules, want 1", len(rm))
			}
			return later
		}},
		{"hard-timeout", func(t *testing.T, tbl *Table) time.Time {
			later := now.Add(time.Hour)
			if rm := tbl.Expire(later); len(rm) != 1 {
				t.Fatalf("Expire removed %d rules, want 1", len(rm))
			}
			return later
		}},
		{"clear", func(t *testing.T, tbl *Table) time.Time {
			tbl.Clear()
			return now
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tbl := New(0)
			mfAdd(t, tbl, &pkt, 1, 10, func(fm *openflow.FlowMod) {
				switch tt.name {
				case "idle-timeout":
					fm.IdleTimeout = 5
				case "hard-timeout":
					fm.HardTimeout = 5
				}
			}, now)
			prime(t, tbl, &pkt, now)
			at := tt.mutate(t, tbl)
			if e := tbl.Lookup(&pkt, 1, at, 64); e != nil {
				t.Fatalf("cached entry survived %s: %v", tt.name, e)
			}
		})
	}
}

func TestMicroflowCacheModifySwapsActions(t *testing.T) {
	now := time.Unix(1000, 0)
	pkt := mfPacket(0x0a000001, 0x0a000002, 80)
	tbl := New(0)
	mfAdd(t, tbl, &pkt, 1, 10, nil, now)
	prime(t, tbl, &pkt, now)
	if _, err := tbl.Apply(openflow.FlowMod{
		Match:    openflow.ExactFrom(&pkt, 1),
		Command:  openflow.FlowModifyStrict,
		Priority: 10,
		Actions:  []openflow.Action{openflow.Output(7)},
	}, now); err != nil {
		t.Fatal(err)
	}
	e := tbl.Lookup(&pkt, 1, now, 64)
	if e == nil {
		t.Fatal("lookup missed after modify")
	}
	out, ok := e.Actions[0].(openflow.ActionOutput)
	if !ok || out.Port != 7 {
		t.Fatalf("cached entry served stale actions after FlowModify: %v", e.Actions)
	}
}

func TestMicroflowCacheHigherPrioritySupersedes(t *testing.T) {
	now := time.Unix(1000, 0)
	pkt := mfPacket(0x0a000001, 0x0a000002, 80)
	tbl := New(0)
	mfAdd(t, tbl, &pkt, 1, 10, nil, now)
	prime(t, tbl, &pkt, now)

	// A higher-priority add covering the same tuple must win immediately,
	// not be shadowed by the cached lower-priority hit.
	mfAdd(t, tbl, &pkt, 1, 100, func(fm *openflow.FlowMod) {
		fm.Actions = []openflow.Action{openflow.Output(9)}
	}, now)
	e := tbl.Lookup(&pkt, 1, now, 64)
	if e == nil {
		t.Fatal("lookup missed")
	}
	if e.Priority != 100 {
		t.Fatalf("cached lower-priority entry shadowed the new rule: priority=%d", e.Priority)
	}
}

func TestMicroflowCacheMissThenAdd(t *testing.T) {
	now := time.Unix(1000, 0)
	pkt := mfPacket(0x0a000001, 0x0a000002, 80)
	tbl := New(0)
	if e := tbl.Lookup(&pkt, 1, now, 64); e != nil {
		t.Fatal("lookup on empty table matched")
	}
	mfAdd(t, tbl, &pkt, 1, 10, nil, now)
	if e := tbl.Lookup(&pkt, 1, now, 64); e == nil {
		t.Fatal("earlier miss shadowed a newly added rule")
	}
}

func TestMicroflowCacheBounded(t *testing.T) {
	now := time.Unix(1000, 0)
	tbl := New(0)
	tbl.SetMicroflowSize(64)
	pkt := mfPacket(0x0a000001, 0x0a000002, 80)
	mfAdd(t, tbl, &pkt, 1, 10, func(fm *openflow.FlowMod) {
		fm.Match.Wildcards |= openflow.WildTpDst
	}, now)
	// Distinct matched tuples past the bound must reset, not grow, the
	// cache.
	for i := 0; i < 1000; i++ {
		p := mfPacket(0x0a000001, 0x0a000002, uint16(i))
		tbl.Lookup(&p, 1, now, 64)
	}
	st := tbl.Stats()
	if st.MicroflowEntries > 64 {
		t.Fatalf("microflow cache grew past its bound: %d entries", st.MicroflowEntries)
	}
	if st.Invalidations == 0 {
		t.Fatal("expected capacity resets to be counted")
	}
	// Correctness survives the resets.
	if e := tbl.Lookup(&pkt, 1, now, 64); e == nil {
		t.Fatal("lookup missed after capacity churn")
	}
}

// A flood of fresh unmatched tuples — the spoofed-source attack — must
// not reset the cache or displace the covered flow's entry.
func TestMicroflowCacheIgnoresMissFlood(t *testing.T) {
	now := time.Unix(1000, 0)
	tbl := New(0)
	tbl.SetMicroflowSize(64)
	pkt := mfPacket(0x0a000001, 0x0a000002, 80)
	mfAdd(t, tbl, &pkt, 1, 10, nil, now)
	prime(t, tbl, &pkt, now)
	for i := 0; i < 1000; i++ {
		p := mfPacket(0x0b000000+uint32(i), 0x0a000002, 80)
		if tbl.Lookup(&p, 1, now, 64) != nil {
			t.Fatal("spoofed tuple matched")
		}
	}
	st := tbl.Stats()
	if st.Invalidations != 0 || st.MicroflowEntries != 1 {
		t.Fatalf("miss flood disturbed the cache: %+v", st)
	}
	hits := st.MicroflowHits
	if tbl.Lookup(&pkt, 1, now, 64) == nil || tbl.Stats().MicroflowHits != hits+1 {
		t.Fatal("covered flow lost its cache entry to the miss flood")
	}
}

func TestMicroflowCacheCountsPerPacket(t *testing.T) {
	now := time.Unix(1000, 0)
	pkt := mfPacket(0x0a000001, 0x0a000002, 80)
	tbl := New(0)
	mfAdd(t, tbl, &pkt, 1, 10, nil, now)
	for i := 0; i < 5; i++ {
		tbl.Lookup(&pkt, 1, now, 100)
	}
	e := tbl.Peek(&pkt, 1)
	if e == nil {
		t.Fatal("peek missed")
	}
	// Cache hits must keep per-rule counters exact.
	if e.Packets != 5 || e.Bytes != 500 {
		t.Fatalf("counters diverged under cache hits: packets=%d bytes=%d", e.Packets, e.Bytes)
	}
	if got := tbl.Matched(); got != 5 {
		t.Fatalf("table matched counter = %d, want 5", got)
	}
}
