package flowtable

import (
	"testing"
	"time"

	"floodguard/internal/netpkt"
	"floodguard/internal/openflow"
)

// What these tests pin is a contract of the table, not of a cache: a
// rule-set mutation is visible to the very next lookup, to every packet
// it covers and to no other, and a lookup — hit or miss — leaves nothing
// behind. They were written against the microflow cache that used to sit
// in front of the classifier (hence the names, kept so the test floor
// keeps tracking them) and hold trivially now that every lookup goes to
// the classifier; they stay so that anything put in front of it again
// has to pass them.

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

// prime serves p twice, so that anything that remembers lookups has
// remembered this one.
func prime(t *testing.T, tbl *Table, p *netpkt.Packet, now time.Time) {
	t.Helper()
	for i := 0; i < 2; i++ {
		if tbl.Lookup(p, 1, now, 64) == nil {
			t.Fatalf("prime: lookup %d missed", i)
		}
	}
}

func TestMicroflowCacheInvalidation(t *testing.T) {
	now := time.Unix(1000, 0)
	pkt := mfPacket(0x0a000001, 0x0a000002, 80)

	tests := []struct {
		name string
		// mutate removes the rule after it has served lookups; the next
		// lookup, at the returned time, must miss.
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
				t.Fatalf("removed rule still served after %s: %v", tt.name, e)
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
	// An add with the same match and priority overwrites the rule: the
	// table's way of changing a rule's actions.
	if _, err := tbl.Apply(openflow.FlowMod{
		Match:    openflow.ExactFrom(&pkt, 1),
		Command:  openflow.FlowAdd,
		Priority: 10,
		Actions:  []openflow.Action{openflow.Output(7)},
	}, now); err != nil {
		t.Fatal(err)
	}
	e := tbl.Lookup(&pkt, 1, now, 64)
	if e == nil {
		t.Fatal("lookup missed after the overwriting add")
	}
	out, ok := e.Actions[0].(openflow.ActionOutput)
	if !ok || out.Port != 7 {
		t.Fatalf("stale actions served after the overwriting add: %v", e.Actions)
	}
}

func TestMicroflowCacheHigherPrioritySupersedes(t *testing.T) {
	now := time.Unix(1000, 0)
	pkt := mfPacket(0x0a000001, 0x0a000002, 80)
	tbl := New(0)
	mfAdd(t, tbl, &pkt, 1, 10, nil, now)
	prime(t, tbl, &pkt, now)

	// A higher-priority add covering the same tuple must win immediately.
	mfAdd(t, tbl, &pkt, 1, 100, func(fm *openflow.FlowMod) {
		fm.Actions = []openflow.Action{openflow.Output(9)}
	}, now)
	e := tbl.Lookup(&pkt, 1, now, 64)
	if e == nil {
		t.Fatal("lookup missed")
	}
	if e.Priority != 100 {
		t.Fatalf("lower-priority rule shadowed the new one: priority=%d", e.Priority)
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

// A repeated miss is a miss every time, an add outside its scope does
// not change that, and a covering add is visible to the very next lookup.
func TestMicroflowMissNeverStored(t *testing.T) {
	now := time.Unix(1000, 0)
	tbl := New(0)
	a := mfPacket(0x0a000001, 0x0a000002, 80)
	other := mfPacket(0x0a000005, 0x0a000006, 53)

	if e := tbl.Lookup(&a, 1, now, 64); e != nil {
		t.Fatal("empty table matched")
	}
	mfAdd(t, tbl, &other, 1, 10, nil, now) // out of a's scope
	before := tbl.Stats()
	if e := tbl.Lookup(&a, 1, now, 64); e != nil {
		t.Fatal("unrelated add made the miss a hit")
	}
	if st := tbl.Stats(); st.Lookups != before.Lookups+1 || st.Matched != before.Matched {
		t.Errorf("repeated miss not counted as one: before %+v after %+v", before, st)
	}
	mfAdd(t, tbl, &a, 1, 10, nil, now) // covering add
	if e := tbl.Lookup(&a, 1, now, 64); e == nil {
		t.Fatal("add not visible to the next lookup")
	}
}

// A flood of fresh unmatched tuples — the spoofed-source attack — buys
// no table state and leaves the covered flow served as before.
func TestMicroflowCacheIgnoresMissFlood(t *testing.T) {
	now := time.Unix(1000, 0)
	tbl := New(0)
	pkt := mfPacket(0x0a000001, 0x0a000002, 80)
	mfAdd(t, tbl, &pkt, 1, 10, nil, now)
	prime(t, tbl, &pkt, now)
	before := tbl.Stats()
	for i := 0; i < 1000; i++ {
		p := mfPacket(0x0b000000+uint32(i), 0x0a000002, 80)
		if tbl.Lookup(&p, 1, now, 64) != nil {
			t.Fatal("spoofed tuple matched")
		}
	}
	if st := tbl.Stats(); st.Matched != before.Matched || st.Lookups != before.Lookups+1000 || tbl.Len() != 1 {
		t.Fatalf("miss flood disturbed the table: before %+v after %+v, %d rules", before, st, tbl.Len())
	}
	if tbl.Lookup(&pkt, 1, now, 64) == nil {
		t.Fatal("covered flow lost its rule to the miss flood")
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
	// Repeats of one tuple must keep per-rule counters exact.
	if e.Packets != 5 || e.Bytes != 500 {
		t.Fatalf("counters diverged: packets=%d bytes=%d", e.Packets, e.Bytes)
	}
	if got := tbl.Matched(); got != 5 {
		t.Fatalf("table matched counter = %d, want 5", got)
	}
}

// Deleting one rule changes the answer for the packets it covered and
// for no bystander.
func TestMicroflowSelectiveRetentionAcrossDelete(t *testing.T) {
	now := time.Unix(1000, 0)
	tbl := New(0)
	a := mfPacket(0x0a000001, 0x0a000002, 80)
	b := mfPacket(0x0a000003, 0x0a000004, 443)
	mfAdd(t, tbl, &a, 1, 10, nil, now)
	mfAdd(t, tbl, &b, 1, 10, nil, now)
	prime(t, tbl, &a, now)
	prime(t, tbl, &b, now)

	if _, err := tbl.Apply(openflow.FlowMod{
		Match:    openflow.ExactFrom(&b, 1),
		Command:  openflow.FlowDeleteStrict,
		Priority: 10,
		OutPort:  openflow.PortNone,
	}, now); err != nil {
		t.Fatal(err)
	}
	if e := tbl.Lookup(&a, 1, now, 64); e == nil {
		t.Fatal("bystander flow lost its rule")
	}
	if e := tbl.Lookup(&b, 1, now, 64); e != nil {
		t.Fatalf("deleted rule still served: %v", e)
	}
}

// The same across an idle timeout: the flow served by the surviving
// rule keeps matching, the expired rule's flow misses.
func TestMicroflowSelectiveRetentionAcrossExpire(t *testing.T) {
	now := time.Unix(1000, 0)
	tbl := New(0)
	a := mfPacket(0x0a000001, 0x0a000002, 80)
	b := mfPacket(0x0a000003, 0x0a000004, 443)
	mfAdd(t, tbl, &a, 1, 10, nil, now)
	mfAdd(t, tbl, &b, 1, 10, func(fm *openflow.FlowMod) { fm.IdleTimeout = 5 }, now)
	prime(t, tbl, &a, now)

	later := now.Add(time.Minute)
	if rm := tbl.Expire(later); len(rm) != 1 {
		t.Fatalf("Expire removed %d rules, want 1", len(rm))
	}
	if e := tbl.Lookup(&a, 1, later, 64); e == nil {
		t.Fatal("surviving flow lost its rule")
	}
	if e := tbl.Lookup(&b, 1, later, 64); e != nil {
		t.Fatal("expired rule still served")
	}
}
