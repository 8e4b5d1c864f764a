package flowtable

import (
	"errors"
	"testing"
	"time"

	"floodguard/internal/netpkt"
	"floodguard/internal/openflow"
)

var t0 = time.Date(2015, 6, 22, 0, 0, 0, 0, time.UTC)

func udpPacket() netpkt.Packet {
	return netpkt.Packet{
		EthSrc:  netpkt.MustMAC("00:00:00:00:00:01"),
		EthDst:  netpkt.MustMAC("00:00:00:00:00:02"),
		EthType: netpkt.EtherTypeIPv4,
		NwSrc:   netpkt.MustIPv4("10.0.0.1"),
		NwDst:   netpkt.MustIPv4("10.0.0.2"),
		NwProto: netpkt.ProtoUDP,
		TpSrc:   5000,
		TpDst:   53,
	}
}

func addExact(t *testing.T, tbl *Table, p *netpkt.Packet, inPort uint16, prio uint16, out uint16) {
	t.Helper()
	fm := openflow.FlowMod{
		Match:    openflow.ExactFrom(p, inPort),
		Command:  openflow.FlowAdd,
		Priority: prio,
		Actions:  []openflow.Action{openflow.Output(out)},
	}
	if _, err := tbl.Apply(fm, t0); err != nil {
		t.Fatalf("Apply: %v", err)
	}
}

func TestLookupMissOnEmptyTable(t *testing.T) {
	tbl := New(0)
	p := udpPacket()
	if e := tbl.Lookup(&p, 1, t0, 64); e != nil {
		t.Errorf("Lookup on empty table = %v, want miss", e)
	}
	if tbl.Lookups() != 1 || tbl.Matched() != 0 {
		t.Errorf("counters = (%d,%d), want (1,0)", tbl.Lookups(), tbl.Matched())
	}
}

func TestPriorityWins(t *testing.T) {
	tbl := New(0)
	p := udpPacket()
	// Low-priority wildcard-all to port 9, higher-priority exact to port 3.
	low := openflow.FlowMod{
		Match:    openflow.MatchAll(),
		Command:  openflow.FlowAdd,
		Priority: 1,
		Actions:  []openflow.Action{openflow.Output(9)},
	}
	if _, err := tbl.Apply(low, t0); err != nil {
		t.Fatal(err)
	}
	addExact(t, tbl, &p, 1, 100, 3)

	e := tbl.Lookup(&p, 1, t0, 64)
	if e == nil {
		t.Fatal("miss, want exact hit")
	}
	if got := e.Actions[0].(openflow.ActionOutput).Port; got != 3 {
		t.Errorf("matched port %d, want 3 (exact, higher priority)", got)
	}

	other := udpPacket()
	other.TpDst = 9999
	e = tbl.Lookup(&other, 1, t0, 64)
	if e == nil {
		t.Fatal("miss, want wildcard hit")
	}
	if got := e.Actions[0].(openflow.ActionOutput).Port; got != 9 {
		t.Errorf("matched port %d, want 9 (wildcard)", got)
	}
}

func TestPriorityTieBrokenByInsertionOrder(t *testing.T) {
	tbl := New(0)
	p := udpPacket()
	m := openflow.MatchAll()
	for i, out := range []uint16{5, 6} {
		fm := openflow.FlowMod{Match: m, Command: openflow.FlowAdd, Priority: 10,
			Actions: []openflow.Action{openflow.Output(out)}}
		fm.Match.Wildcards &^= openflow.WildInPort
		fm.Match.InPort = 1
		if i == 1 {
			// Same priority, different match (different in_port constraint
			// would dedupe; use dl_type instead to keep both).
			fm.Match = openflow.MatchAll()
			fm.Match.Wildcards &^= openflow.WildDlType
			fm.Match.DlType = netpkt.EtherTypeIPv4
		}
		if _, err := tbl.Apply(fm, t0); err != nil {
			t.Fatal(err)
		}
	}
	e := tbl.Lookup(&p, 1, t0, 64)
	if e == nil {
		t.Fatal("miss")
	}
	if got := e.Actions[0].(openflow.ActionOutput).Port; got != 5 {
		t.Errorf("tie broken to port %d, want 5 (first installed)", got)
	}
}

func TestAddOverwritesSameMatchAndPriority(t *testing.T) {
	tbl := New(1) // capacity 1: overwrite must not hit the capacity check
	p := udpPacket()
	addExact(t, tbl, &p, 1, 10, 3)
	addExact(t, tbl, &p, 1, 10, 7)
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tbl.Len())
	}
	e := tbl.Lookup(&p, 1, t0, 64)
	if got := e.Actions[0].(openflow.ActionOutput).Port; got != 7 {
		t.Errorf("port = %d, want 7 (overwritten)", got)
	}
}

// TestFlowAddAllocatesOnlyTheEntry pins what a rule install costs the
// heap: the Entry and nothing beside it. An overwrite-add keeps the rule
// list and the classifier at their size (a second rule keeps the shape's
// subtable alive), so only the install is counted.
func TestFlowAddAllocatesOnlyTheEntry(t *testing.T) {
	tbl := New(0)
	p := udpPacket()
	other := udpPacket()
	other.TpDst = 54
	addExact(t, tbl, &other, 1, 10, 2)
	fm := openflow.FlowMod{
		Match:    openflow.ExactFrom(&p, 1),
		Command:  openflow.FlowAdd,
		Priority: 10,
		Actions:  []openflow.Action{openflow.Output(2)},
	}
	apply := func() {
		if _, err := tbl.Apply(fm, t0); err != nil {
			t.Fatal(err)
		}
	}
	apply()
	if got := testing.AllocsPerRun(100, apply); got != 1 {
		t.Errorf("FlowAdd allocates %v objects, want 1 (the Entry)", got)
	}
}

func TestCapacityEnforced(t *testing.T) {
	tbl := New(3)
	g := netpkt.NewSpoofGen(3, netpkt.FloodUDP, 0)
	for i := 0; i < 3; i++ {
		p := g.Next()
		addExact(t, tbl, &p, 1, 10, 1)
	}
	p := g.Next()
	fm := openflow.FlowMod{Match: openflow.ExactFrom(&p, 1), Command: openflow.FlowAdd, Priority: 10}
	if _, err := tbl.Apply(fm, t0); !errors.Is(err, ErrTableFull) {
		t.Errorf("Apply over capacity = %v, want ErrTableFull", err)
	}
	if tbl.Len() != 3 {
		t.Errorf("Len = %d, want 3", tbl.Len())
	}
}

func TestIdleTimeout(t *testing.T) {
	tbl := New(0)
	p := udpPacket()
	fm := openflow.FlowMod{
		Match: openflow.ExactFrom(&p, 1), Command: openflow.FlowAdd,
		IdleTimeout: 10, Priority: 1,
		Flags: openflow.FlagSendFlowRem,
	}
	if _, err := tbl.Apply(fm, t0); err != nil {
		t.Fatal(err)
	}
	// Matched at t0+5s: keeps the rule alive past t0+10s.
	tbl.Lookup(&p, 1, t0.Add(5*time.Second), 64)
	if rm := tbl.Expire(t0.Add(12 * time.Second)); len(rm) != 0 {
		t.Fatalf("expired %d rules at +12s, want 0 (refreshed at +5s)", len(rm))
	}
	rm := tbl.Expire(t0.Add(16 * time.Second))
	if len(rm) != 1 {
		t.Fatalf("expired %d rules at +16s, want 1", len(rm))
	}
	if rm[0].Reason != openflow.RemovedIdleTimeout {
		t.Errorf("reason = %v, want idle", rm[0].Reason)
	}
	if !rm[0].Entry.NotifyRem {
		t.Error("NotifyRem flag lost")
	}
}

func TestHardTimeout(t *testing.T) {
	tbl := New(0)
	p := udpPacket()
	fm := openflow.FlowMod{
		Match: openflow.ExactFrom(&p, 1), Command: openflow.FlowAdd,
		HardTimeout: 10, Priority: 1,
	}
	if _, err := tbl.Apply(fm, t0); err != nil {
		t.Fatal(err)
	}
	tbl.Lookup(&p, 1, t0.Add(9*time.Second), 64) // matching does not help
	rm := tbl.Expire(t0.Add(10 * time.Second))
	if len(rm) != 1 || rm[0].Reason != openflow.RemovedHardTimeout {
		t.Fatalf("Expire = %v, want one hard-timeout removal", rm)
	}
}

func TestDeleteStrict(t *testing.T) {
	tbl := New(0)
	p := udpPacket()
	addExact(t, tbl, &p, 1, 10, 1)
	addExact(t, tbl, &p, 2, 20, 1) // same packet, different in_port+priority

	fm := openflow.FlowMod{Match: openflow.ExactFrom(&p, 1), Priority: 10,
		Command: openflow.FlowDeleteStrict, OutPort: openflow.PortNone}
	rm, err := tbl.Apply(fm, t0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rm) != 1 || tbl.Len() != 1 {
		t.Errorf("strict delete removed %d, table %d; want 1, 1", len(rm), tbl.Len())
	}
}

func TestDeleteFiltersByOutPort(t *testing.T) {
	tbl := New(0)
	p := udpPacket()
	addExact(t, tbl, &p, 1, 10, 3)
	q := udpPacket()
	q.TpDst = 99
	addExact(t, tbl, &q, 1, 10, 4)

	// Aimed at q's rule with an out_port its actions do not output to,
	// the strict delete leaves it; with q's port it removes it.
	fm := openflow.FlowMod{Match: openflow.ExactFrom(&q, 1), Priority: 10,
		Command: openflow.FlowDeleteStrict, OutPort: 3}
	if rm, err := tbl.Apply(fm, t0); err != nil || len(rm) != 0 || tbl.Len() != 2 {
		t.Fatalf("delete filtered to port 3 removed %d, left %d (%v); want 0,2", len(rm), tbl.Len(), err)
	}
	fm.OutPort = 4
	rm, err := tbl.Apply(fm, t0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rm) != 1 || tbl.Len() != 1 {
		t.Fatalf("out_port-filtered delete removed %d, left %d; want 1,1", len(rm), tbl.Len())
	}
	if got := tbl.Entries()[0].Actions[0].(openflow.ActionOutput).Port; got != 3 {
		t.Errorf("surviving rule outputs to %d, want 3", got)
	}
}

// TestApplyRejectsUnservedCommands: MODIFY, MODIFY_STRICT and non-strict
// DELETE are refused with an error and leave the table as it was.
func TestApplyRejectsUnservedCommands(t *testing.T) {
	tbl := New(0)
	p := udpPacket()
	addExact(t, tbl, &p, 1, 10, 3)
	for _, cmd := range []openflow.FlowModCommand{openflow.FlowModify, openflow.FlowModifyStrict, openflow.FlowDelete} {
		fm := openflow.FlowMod{Match: openflow.ExactFrom(&p, 1), Priority: 10, Command: cmd,
			OutPort: openflow.PortNone, Actions: []openflow.Action{openflow.Output(8)}}
		if rm, err := tbl.Apply(fm, t0); err == nil || len(rm) != 0 {
			t.Errorf("%v: Apply = (%d removed, %v), want an error", cmd, len(rm), err)
		}
	}
	if e := tbl.Lookup(&p, 1, t0, 64); e == nil || e.Actions[0].(openflow.ActionOutput).Port != 3 {
		t.Errorf("rule changed by a refused command: %v", e)
	}
}

func TestCounters(t *testing.T) {
	tbl := New(0)
	p := udpPacket()
	addExact(t, tbl, &p, 1, 10, 3)
	for i := 0; i < 5; i++ {
		tbl.Lookup(&p, 1, t0, 100)
	}
	e := tbl.Peek(&p, 1)
	if e.Packets != 5 || e.Bytes != 500 {
		t.Errorf("counters = (%d, %d), want (5, 500)", e.Packets, e.Bytes)
	}
	// Peek must not bump counters.
	if e2 := tbl.Peek(&p, 1); e2.Packets != 5 {
		t.Errorf("Peek bumped counters to %d", e2.Packets)
	}
}

func TestSoftwareLookupCost(t *testing.T) {
	base, per := 10*time.Microsecond, time.Microsecond
	if got := SoftwareLookupCost(0, base, per); got != base {
		t.Errorf("cost(0) = %v, want %v", got, base)
	}
	if got := SoftwareLookupCost(100, base, per); got != base+100*per {
		t.Errorf("cost(100) = %v", got)
	}
	if got := SoftwareLookupCost(100, base, 0); got != base {
		t.Errorf("TCAM cost(100) = %v, want %v", got, base)
	}
}

func TestClear(t *testing.T) {
	tbl := New(0)
	p := udpPacket()
	addExact(t, tbl, &p, 1, 10, 3)
	tbl.Clear()
	if tbl.Len() != 0 {
		t.Errorf("Len after Clear = %d", tbl.Len())
	}
}

func TestEntryString(t *testing.T) {
	p := udpPacket()
	e := Entry{Match: openflow.ExactFrom(&p, 1), Priority: 5,
		Actions: []openflow.Action{openflow.Output(2)}}
	s := e.String()
	if s == "" {
		t.Error("empty entry string")
	}
}
