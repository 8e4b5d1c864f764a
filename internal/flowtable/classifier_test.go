package flowtable

import (
	"fmt"
	"maps"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"floodguard/internal/netpkt"
	"floodguard/internal/openflow"
)

// linearTable is the flow table as it was before the classifier: one
// priority-sorted slice, a Match.Equal scan for strict identity, a full
// stable sort per add and a first-match scan per lookup. It survives
// here as the oracle the indexed Table must agree with, decision for
// decision.
type linearTable struct {
	entries []*Entry
	nextSeq uint64
}

func (t *linearTable) apply(m openflow.FlowMod, now time.Time) []Removed {
	switch m.Command {
	case openflow.FlowAdd:
		e := &Entry{
			Match: m.Match, Priority: m.Priority, Cookie: m.Cookie, Actions: m.Actions,
			IdleTimeout: time.Duration(m.IdleTimeout) * time.Second,
			HardTimeout: time.Duration(m.HardTimeout) * time.Second,
			Installed:   now, LastMatched: now, seq: t.nextSeq,
		}
		for i, old := range t.entries {
			if old.Priority == e.Priority && old.Match.Equal(&e.Match) {
				e.seq = old.seq
				t.entries[i] = e
				return nil
			}
		}
		t.nextSeq++
		t.entries = append(t.entries, e)
		sort.SliceStable(t.entries, func(i, j int) bool {
			if t.entries[i].Priority != t.entries[j].Priority {
				return t.entries[i].Priority > t.entries[j].Priority
			}
			return t.entries[i].seq < t.entries[j].seq
		})
	case openflow.FlowDeleteStrict:
		var removed []Removed
		var keep []*Entry
		for _, e := range t.entries {
			if e.Priority == m.Priority && e.Match.Equal(&m.Match) &&
				(m.OutPort == openflow.PortNone || outputsTo(e.Actions, m.OutPort)) {
				removed = append(removed, Removed{Entry: e, Reason: openflow.RemovedDelete})
			} else {
				keep = append(keep, e)
			}
		}
		t.entries = keep
		return removed
	}
	return nil
}

func (t *linearTable) lookup(p *netpkt.Packet, inPort uint16, now time.Time, frameLen int) *Entry {
	for _, e := range t.entries {
		if e.Match.Matches(p, inPort) {
			e.Packets++
			e.Bytes += uint64(frameLen)
			e.LastMatched = now
			return e
		}
	}
	return nil
}

func (t *linearTable) expire(now time.Time) []Removed {
	var removed []Removed
	var keep []*Entry
	for _, e := range t.entries {
		switch {
		case e.HardTimeout > 0 && now.Sub(e.Installed) >= e.HardTimeout:
			removed = append(removed, Removed{Entry: e, Reason: openflow.RemovedHardTimeout})
		case e.IdleTimeout > 0 && now.Sub(e.LastMatched) >= e.IdleTimeout:
			removed = append(removed, Removed{Entry: e, Reason: openflow.RemovedIdleTimeout})
		default:
			keep = append(keep, e)
		}
	}
	t.entries = keep
	return removed
}

// opStream turns a byte string into bounded choices, so one driver
// serves the seeded property test and the fuzz target. An exhausted
// stream yields zeros.
type opStream struct {
	b []byte
	i int
	// churn narrows rules to four classifier shapes over a wide MAC pool,
	// so subtables hold many keys and their probe runs are long, and aims
	// most deletes and lookups at installed rules.
	churn bool
}

func (s *opStream) n(max int) int {
	if s.i >= len(s.b) {
		return 0
	}
	v := int(s.b[s.i]) % max
	s.i++
	return v
}

// The value pools are small on purpose: rules overlap, identities
// collide (overwrite-adds), and packets land on rules.
var (
	oracleMACs   = []netpkt.MAC{netpkt.MACFromUint64(1), netpkt.MACFromUint64(2), netpkt.MACFromUint64(3), netpkt.Broadcast}
	oracleTypes  = []uint16{netpkt.EtherTypeIPv4, netpkt.EtherTypeIPv4, netpkt.EtherTypeARP, 0x86dd, 0x88cc}
	oracleIPs    = []netpkt.IPv4{0x0a000001, 0x0a000002, 0x0a000081, 0x0a010001, 0xc0a80001}
	oracleProtos = []uint8{netpkt.ProtoTCP, netpkt.ProtoUDP, netpkt.ProtoICMP, 47, 1, 2}
	oraclePorts  = []uint16{53, 80, 443}
	oracleVLANs  = []uint16{10, 20}
	oraclePCPs   = []uint8{0, 3}
	oracleTOS    = []uint8{0, 0x20}
	oraclePrefix = []int{0, 8, 24, 25, 32}
	oraclePrios  = []uint16{0, 10, 10, 20, 65535}
	// Rules name in_ports at the port stage's word edges; packets also
	// arrive on ports no rule can name (0, 4, 62, 65534).
	oracleRulePorts = []uint16{1, 2, 3, 63, 64, 65535}
	oraclePktPorts  = []uint16{0, 1, 2, 3, 4, 62, 63, 64, 65534, 65535}
)

// churnMACs are the churn mode's addresses, chosen the way an attacker
// would: sequential, and equal in their low 32 bits.
var churnMACs = func() []netpkt.MAC {
	var macs []netpkt.MAC
	for i := uint64(0); i < 32; i++ {
		macs = append(macs, netpkt.MACFromUint64(0x020000000000+i), netpkt.MACFromUint64(i<<32|0x0a0b0c0d))
	}
	return macs
}()

var churnTypes = []uint16{netpkt.EtherTypeIPv4, netpkt.EtherTypeARP}

// churnShapes are the churn mode's wildcard sets: every field but the
// four classifier fields is wildcarded, and these pin dl_dst; dl_src and
// dl_dst; in_port and dl_dst; and all four.
var churnShapes = []uint32{
	openflow.WildAll &^ openflow.WildDlDst,
	openflow.WildAll &^ (openflow.WildDlSrc | openflow.WildDlDst),
	openflow.WildAll &^ (openflow.WildInPort | openflow.WildDlDst),
	openflow.WildAll &^ (openflow.WildInPort | openflow.WildDlSrc | openflow.WildDlDst | openflow.WildDlType),
}

func (s *opStream) match() openflow.Match {
	if s.churn {
		return openflow.Match{
			Wildcards: churnShapes[s.n(len(churnShapes))],
			InPort:    oracleRulePorts[s.n(len(oracleRulePorts))],
			DlSrc:     churnMACs[s.n(len(churnMACs))],
			DlDst:     churnMACs[s.n(len(churnMACs))],
			DlType:    churnTypes[s.n(len(churnTypes))],
		}
	}
	m := openflow.Match{
		// All ten single-bit wildcards, independently.
		Wildcards: uint32(s.n(256)) | uint32(s.n(4))<<20,
		InPort:    oracleRulePorts[s.n(len(oracleRulePorts))],
		DlSrc:     oracleMACs[s.n(len(oracleMACs))],
		DlDst:     oracleMACs[s.n(len(oracleMACs))],
		DlVLAN:    oracleVLANs[s.n(len(oracleVLANs))],
		DlVLANPCP: oraclePCPs[s.n(len(oraclePCPs))],
		DlType:    oracleTypes[s.n(len(oracleTypes))],
		NwTOS:     oracleTOS[s.n(len(oracleTOS))],
		NwProto:   oracleProtos[s.n(len(oracleProtos))],
		NwSrc:     oracleIPs[s.n(len(oracleIPs))],
		NwDst:     oracleIPs[s.n(len(oracleIPs))],
		TpSrc:     oraclePorts[s.n(len(oraclePorts))],
		TpDst:     oraclePorts[s.n(len(oraclePorts))],
	}
	m.SetNwSrcMaskLen(oraclePrefix[s.n(len(oraclePrefix))])
	m.SetNwDstMaskLen(oraclePrefix[s.n(len(oraclePrefix))])
	return m
}

func (s *opStream) packet() (netpkt.Packet, uint16) {
	if s.churn {
		p := netpkt.Packet{
			EthSrc:  churnMACs[s.n(len(churnMACs))],
			EthDst:  churnMACs[s.n(len(churnMACs))],
			EthType: churnTypes[s.n(len(churnTypes))],
		}
		return p, oracleRulePorts[s.n(len(oracleRulePorts))]
	}
	p := netpkt.Packet{
		EthSrc:  oracleMACs[s.n(len(oracleMACs))],
		EthDst:  oracleMACs[s.n(len(oracleMACs))],
		EthType: oracleTypes[s.n(len(oracleTypes))],
		HasVLAN: s.n(3) == 0,
		NwSrc:   oracleIPs[s.n(len(oracleIPs))],
		NwDst:   oracleIPs[s.n(len(oracleIPs))],
		NwProto: oracleProtos[s.n(len(oracleProtos))],
		NwTOS:   oracleTOS[s.n(len(oracleTOS))],
		TpSrc:   oraclePorts[s.n(len(oraclePorts))],
		TpDst:   oraclePorts[s.n(len(oraclePorts))],
	}
	if p.HasVLAN {
		p.VLANID = oracleVLANs[s.n(len(oracleVLANs))]
		p.VLANPCP = oraclePCPs[s.n(len(oraclePCPs))]
	}
	if p.EthType == netpkt.EtherTypeARP {
		p.ARPOp = uint16(1 + s.n(2))
	}
	return p, oraclePktPorts[s.n(len(oraclePktPorts))]
}

// runOracle plays one op stream against a fresh Table and the linear
// oracle and fails on the first disagreement. Rules are identified by
// cookie: every add mints a fresh one, on both sides. In churn mode
// (opStream.churn) half the ops are deletes and most lookups carry an
// installed rule's fields.
func runOracle(t *testing.T, data []byte, churn bool) {
	t.Helper()
	s := &opStream{b: data, churn: churn}
	tbl, ref := New(0), &linearTable{}
	now := time.Unix(1000, 0)
	var cookie uint64

	cookieOf := func(e *Entry) uint64 {
		if e == nil {
			return 0
		}
		return e.Cookie
	}
	sameRemoved := func(op string, got, want []Removed) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("op %d %s: removed %d rules, oracle %d", s.i, op, len(got), len(want))
		}
		for i := range got {
			if got[i].Entry.Cookie != want[i].Entry.Cookie || got[i].Reason != want[i].Reason {
				t.Fatalf("op %d %s: removed[%d] = cookie %d reason %v, oracle cookie %d reason %v", s.i, op, i,
					got[i].Entry.Cookie, got[i].Reason, want[i].Entry.Cookie, want[i].Reason)
			}
		}
	}
	for s.i < len(s.b) {
		op := "lookup"
		c := s.n(16)
		if churn {
			// Adds, then deletes, then lookups: 5, 8 and 3 in 16.
			c = [16]int{0, 1, 2, 3, 4, 6, 6, 6, 6, 7, 7, 7, 8, 11, 11, 11}[c]
		}
		switch {
		case c < 6: // add; a quarter reuse an installed match, as an overwrite or at another priority
			op = "add"
			cookie++
			fm := openflow.FlowMod{
				Command: openflow.FlowAdd, Match: s.match(), Priority: oraclePrios[s.n(len(oraclePrios))],
				Cookie: cookie, Actions: []openflow.Action{openflow.Output(uint16(1 + s.n(3)))},
				IdleTimeout: uint16(s.n(3) * 5), HardTimeout: uint16(s.n(3) * 20),
			}
			if n := len(ref.entries); n > 0 && s.n(4) == 0 {
				fm.Match = ref.entries[s.n(n)].Match
			}
			if _, err := tbl.Apply(fm, now); err != nil {
				t.Fatalf("op %d add: %v", s.i, err)
			}
			ref.apply(fm, now)
		case c < 9: // strict delete, aimed at an installed rule half the time
			fm := openflow.FlowMod{
				Command:  openflow.FlowDeleteStrict,
				Match:    s.match(),
				Priority: oraclePrios[s.n(len(oraclePrios))],
				Actions:  []openflow.Action{openflow.Output(uint16(1 + s.n(3)))},
				OutPort:  openflow.PortNone,
			}
			op = fm.Command.String()
			if n := len(ref.entries); n > 0 && (churn || s.n(2) == 0) {
				e := ref.entries[s.n(n)]
				fm.Match = e.Match
				if s.n(3) > 0 {
					fm.Priority = e.Priority
				}
			}
			if s.n(3) == 0 {
				fm.OutPort = uint16(1 + s.n(3))
			}
			got, err := tbl.Apply(fm, now)
			if err != nil {
				t.Fatalf("op %d %s: %v", s.i, op, err)
			}
			sameRemoved(op, got, ref.apply(fm, now))
		case c == 9:
			op = "expire"
			now = now.Add(time.Duration(s.n(12)) * time.Second)
			sameRemoved(op, tbl.Expire(now), ref.expire(now))
		case c == 10 && s.n(8) == 0:
			op = "clear"
			tbl.Clear()
			ref.entries = nil
		default:
			p, inPort := s.packet()
			if n := len(ref.entries); churn && n > 0 && s.n(4) > 0 {
				m := &ref.entries[s.n(n)].Match
				p.EthSrc, p.EthDst, p.EthType, inPort = m.DlSrc, m.DlDst, m.DlType, m.InPort
			}
			want := cookieOf(ref.lookup(&p, inPort, now, 64))
			if got := cookieOf(tbl.Peek(&p, inPort)); got != want {
				t.Fatalf("op %d: Peek = cookie %d, oracle %d (%v port %d)", s.i, got, want, &p, inPort)
			}
			if got := cookieOf(tbl.Lookup(&p, inPort, now, 64)); got != want {
				t.Fatalf("op %d: Lookup = cookie %d, oracle %d (%v port %d)", s.i, got, want, &p, inPort)
			}
		}
		checkPortStage(t, tbl, op, s.i)
		checkIndex(t, tbl, op, s.i)
		got := tbl.Entries()
		if len(got) != len(ref.entries) || tbl.Len() != len(ref.entries) || indexed(tbl) != len(ref.entries) {
			t.Fatalf("op %d %s: %d rules (%d indexed), oracle %d", s.i, op, len(got), indexed(tbl), len(ref.entries))
		}
		for i, e := range got {
			w := ref.entries[i]
			if e.Cookie != w.Cookie || e.Priority != w.Priority || e.Match != w.Match ||
				e.Packets != w.Packets || !slices.Equal(e.Actions, w.Actions) {
				t.Fatalf("op %d %s: Entries()[%d] = %v (cookie %d, %d pkts), oracle %v (cookie %d, %d pkts)",
					s.i, op, i, e, e.Cookie, e.Packets, w, w.Cookie, w.Packets)
			}
		}
	}
}

// indexed counts the rules reachable through the classifier's chains.
func indexed(tbl *Table) int {
	n := 0
	for i := range tbl.cls.subs {
		for _, sl := range tbl.cls.subs[i].slots {
			for e := sl.head; e != nil; e = e.next {
				n++
			}
		}
	}
	return n
}

// checkIndex holds every subtable's index to its invariants: at most
// a quarter full, as many keys as occupied slots, no key twice, every key
// reachable from its home slot without crossing an empty one (what a
// delete that left a hole breaks), and every chain under its rules' key
// in match order.
func checkIndex(t *testing.T, tbl *Table, op string, at int) {
	t.Helper()
	for i := range tbl.cls.subs {
		sub := &tbl.cls.subs[i]
		n, m := 0, uint64(len(sub.slots)-1)
		seen := map[key]bool{}
		if len(sub.used) != usedWords(len(sub.slots)) {
			t.Fatalf("op %d %s: subtable %#x: %d used words for %d slots", at, op, sub.shape, len(sub.used), len(sub.slots))
		}
		for j, sl := range sub.slots {
			if used := sub.used[j/64]>>(j%64)&1 == 1; used != (sl.head != nil) {
				t.Fatalf("op %d %s: subtable %#x: slot %d marked used=%v, occupied=%v", at, op, sub.shape, j, used, sl.head != nil)
			}
			if sl.head == nil {
				continue
			}
			n++
			if seen[sl.k] {
				t.Fatalf("op %d %s: subtable %#x holds key %x twice", at, op, sub.shape, sl.k)
			}
			seen[sl.k] = true
			for h := sub.home(sub.hash(sl.k)); h != uint64(j); h = (h + 1) & m {
				if sub.slots[h].head == nil {
					t.Fatalf("op %d %s: subtable %#x: key %x at slot %d is cut off from its home by an empty slot %d",
						at, op, sub.shape, sl.k, j, h)
				}
			}
			for e := sl.head; e != nil; e = e.next {
				rk := ruleKey(&e.Match)
				if rk.and(sub.mask) != sl.k {
					t.Fatalf("op %d %s: subtable %#x: rule %v chained under key %x", at, op, sub.shape, e, sl.k)
				}
				if e.next != nil && !e.before(e.next) {
					t.Fatalf("op %d %s: subtable %#x: chain out of order at %v", at, op, sub.shape, e)
				}
			}
		}
		if n != sub.keys || 4*n > len(sub.slots) || n == 0 {
			t.Fatalf("op %d %s: subtable %#x has %d keys in %d slots, counts %d", at, op, sub.shape, n, len(sub.slots), sub.keys)
		}
	}
}

// checkPortStage holds every subtable's port stage to the rules it
// indexes: a shape that pins in_port counts exactly the rules naming
// each port and sets exactly the bits of ports with a nonzero count
// (a delete that takes a port to zero clears its bit); a shape that
// wildcards in_port has no stage.
func checkPortStage(t *testing.T, tbl *Table, op string, at int) {
	t.Helper()
	for i := range tbl.cls.subs {
		sub := &tbl.cls.subs[i]
		if sub.shape&openflow.WildInPort != 0 {
			if sub.ports != nil || sub.portRules != nil {
				t.Fatalf("op %d %s: in_port-wildcarded subtable %#x has a port stage", at, op, sub.shape)
			}
			continue
		}
		want := map[uint16]int{}
		for _, sl := range sub.slots {
			for e := sl.head; e != nil; e = e.next {
				want[e.Match.InPort]++
			}
		}
		if !maps.Equal(sub.portRules, want) {
			t.Fatalf("op %d %s: subtable %#x counts %v, rules name %v", at, op, sub.shape, sub.portRules, want)
		}
		set := 0
		for _, w := range sub.ports {
			set += bits.OnesCount64(w)
		}
		for p := range want {
			if !sub.names(p) {
				t.Fatalf("op %d %s: subtable %#x: port %d has rules but no bit", at, op, sub.shape, p)
			}
		}
		if set != len(want) {
			t.Fatalf("op %d %s: subtable %#x has %d port bits for %d named ports", at, op, sub.shape, set, len(want))
		}
	}
}

// TestClassifierMatchesLinearOracle drives seeded random interleavings
// of every table operation through runOracle, in both modes.
func TestClassifierMatchesLinearOracle(t *testing.T) {
	r := rand.New(rand.NewSource(0xC1A551F1))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 2048)
		r.Read(data)
		runOracle(t, data, false)
		r.Read(data)
		runOracle(t, data, true)
	}
}

// FuzzClassifierOracle runs runOracle on the fuzzer's bytes; the first
// byte's low bit picks churn mode.
func FuzzClassifierOracle(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		data := make([]byte, 512)
		r.Read(data)
		data[0] = byte(i)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 0 {
			runOracle(t, data[1:], data[0]&1 == 1)
		}
	})
}

// TestClassifierTieBreakAcrossSubtables pins the one case early exit
// could get wrong: two equal-priority rules of different shapes both
// match, and the first installed must win whichever subtable is visited
// first.
func TestClassifierTieBreakAcrossSubtables(t *testing.T) {
	now := time.Unix(1000, 0)
	pkt := mfPacket(0x0a000001, 0x0a000002, 80)
	byDst := openflow.MatchAll()
	byDst.Wildcards &^= openflow.WildDlDst
	byDst.DlDst = pkt.EthDst
	bySrc := openflow.MatchAll()
	bySrc.Wildcards &^= openflow.WildDlSrc
	bySrc.DlSrc = pkt.EthSrc
	for _, order := range [][2]openflow.Match{{byDst, bySrc}, {bySrc, byDst}} {
		tbl := New(0)
		for i, m := range order {
			fm := openflow.FlowMod{Command: openflow.FlowAdd, Match: m, Priority: 10, Cookie: uint64(i + 1)}
			if _, err := tbl.Apply(fm, now); err != nil {
				t.Fatal(err)
			}
		}
		if e := tbl.Peek(&pkt, 1); e == nil || e.Cookie != 1 {
			t.Fatalf("equal-priority tie went to %v, want the first installed (%v)", e, &order[0])
		}
		// A later, higher-priority rule in the second shape reorders the
		// subtables; the tie between the first two must not move.
		up := openflow.FlowMod{Command: openflow.FlowAdd, Match: order[1], Priority: 20, Cookie: 3}
		up.Match.Wildcards &^= openflow.WildInPort
		up.Match.InPort = 9 // different shape, does not match port 1
		if _, err := tbl.Apply(up, now); err != nil {
			t.Fatal(err)
		}
		if e := tbl.Peek(&pkt, 1); e == nil || e.Cookie != 1 {
			t.Fatalf("tie moved after a subtable reorder: %v", e)
		}
	}
}

// floodInstallRules is the flood_install rule set: exact per-flow rules
// plus n dl_dst-only rules of the shape l2_learning derives, all at one
// priority.
func floodInstallRules(exact, n int) []openflow.FlowMod {
	mods := make([]openflow.FlowMod, 0, exact+n)
	for i := 0; i < exact; i++ {
		p := mfPacket(0x0a000100+uint32(i), 0x0a000200+uint32(i), 80)
		mods = append(mods, openflow.FlowMod{
			Command: openflow.FlowAdd, Match: openflow.ExactFrom(&p, uint16(1+i%4)), Priority: 100,
			Actions: []openflow.Action{openflow.Output(2)},
		})
	}
	for i := 0; i < n; i++ {
		m := openflow.MatchAll()
		m.Wildcards &^= openflow.WildDlDst
		m.DlDst = netpkt.MACFromUint64(0x020000000000 + uint64(i))
		mods = append(mods, openflow.FlowMod{
			Command: openflow.FlowAdd, Match: m, Priority: 100, IdleTimeout: 10,
			Actions: []openflow.Action{openflow.Output(uint16(1 + i%8))},
		})
	}
	return mods
}

func floodInstallTable(tb testing.TB, exact, n int) *Table {
	tb.Helper()
	tbl := New(0)
	now := time.Unix(1000, 0)
	for _, fm := range floodInstallRules(exact, n) {
		if _, err := tbl.Apply(fm, now); err != nil {
			tb.Fatal(err)
		}
	}
	return tbl
}

// TestClassifierStructureFloodInstall is the scaling assertion that reads
// no clock: the mitigation-moment rule set has two shapes, so a lookup
// is two probes whatever the rule count, and no probe walks a chain.
func TestClassifierStructureFloodInstall(t *testing.T) {
	tbl := floodInstallTable(t, 32, 10000)
	if got := len(tbl.cls.subs); got != 2 {
		t.Fatalf("%d subtables, want 2 (exact, dl_dst)", got)
	}
	keys := 0
	for i := range tbl.cls.subs {
		for _, sl := range tbl.cls.subs[i].slots {
			if sl.head != nil && sl.head.next != nil {
				t.Fatalf("subtable %#x has a chain longer than 1 at %v", tbl.cls.subs[i].shape, sl.head)
			}
			if sl.head != nil {
				keys++
			}
		}
	}
	if keys != 10032 || indexed(tbl) != 10032 || tbl.Len() != 10032 {
		t.Fatalf("%d keys, %d rules indexed, %d listed; want 10032 each", keys, indexed(tbl), tbl.Len())
	}
	// Removing a whole shape removes its probe.
	for _, fm := range floodInstallRules(32, 0) {
		fm.Command, fm.OutPort = openflow.FlowDeleteStrict, openflow.PortNone
		if _, err := tbl.Apply(fm, time.Unix(1000, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(tbl.cls.subs); got != 1 || tbl.Len() != 10000 {
		t.Fatalf("after deleting the exact rules: %d subtables, %d rules; want 1, 10000", got, tbl.Len())
	}
}

// longestProbe is the most slots any probe into sub inspects: a miss
// walks the longest run of occupied slots (wrapping) and stops at the
// empty one after it.
func longestProbe(sub *subtable) int {
	best, run := 0, 0
	for pass := 0; pass < 2; pass++ {
		for _, sl := range sub.slots {
			if sl.head == nil {
				run = 0
				continue
			}
			if run++; run > best {
				best = run
			}
		}
	}
	return best + 1
}

// maxProbe bounds longestProbe at the index's fullest. With random homes
// a quarter full the longest probe read 17–18 slots over 40 tables of
// 16 384 keys; keys whose homes collide (a hash an attacker can aim) run
// to thousands.
const maxProbe = 64

// TestClassifierProbeBoundAttackerKeys is the count witness for keys an
// attacker chooses, in TestClassifierStructureFloodInstall's style: the
// dl_dst rules replayed spoofs can install are sequential MACs, or MACs
// equal in their low 32 bits, and wire_benign's 1 024 of them and 16×
// more both leave every probe under one fixed bound. Both sizes fill
// the index to its quarter-full limit. Each table draws its own seeds.
func TestClassifierProbeBoundAttackerKeys(t *testing.T) {
	patterns := map[string]func(i int) netpkt.MAC{
		"sequential":  func(i int) netpkt.MAC { return netpkt.MACFromUint64(0x020000000000 + uint64(i)) },
		"low32-equal": func(i int) netpkt.MAC { return netpkt.MACFromUint64(uint64(i)<<32 | 0x0a0b0c0d) },
	}
	now := time.Unix(1000, 0)
	for name, mac := range patterns {
		for _, n := range []int{1024, 16 * 1024} {
			tbl := floodInstallTable(t, 32, 0)
			for i := 0; i < n; i++ {
				m := openflow.MatchAll()
				m.Wildcards &^= openflow.WildDlDst
				m.DlDst = mac(i)
				if _, err := tbl.Apply(openflow.FlowMod{Command: openflow.FlowAdd, Match: m, Priority: 100}, now); err != nil {
					t.Fatal(err)
				}
			}
			for i := range tbl.cls.subs {
				sub := &tbl.cls.subs[i]
				if sub.shape != shapeBits&^openflow.WildDlDst {
					continue
				}
				if sub.keys != n || 4*n != len(sub.slots) {
					t.Fatalf("%s/%d: %d keys in %d slots, want %d in %d", name, n, sub.keys, len(sub.slots), n, 4*n)
				}
				if got := longestProbe(sub); got > maxProbe {
					t.Errorf("%s/%d: a probe inspects up to %d slots, bound %d", name, n, got, maxProbe)
				}
			}
		}
	}
}

// TestPortStageSkipsUnnamedPorts is the port stage's witness, a count
// rather than a clock: against the flood_install rule set plus a second
// port-pinned shape, a spoof on a port no rule names hashes into the
// in_port-wildcarded subtable alone, and one on a named port also into
// each port-pinned subtable naming it. Deleting a port's last rule
// takes that port back to one probe.
func TestPortStageSkipsUnnamedPorts(t *testing.T) {
	tbl := floodInstallTable(t, 32, 1000) // exact rules on ports 1..4, dl_dst rules on any port
	now := time.Unix(1000, 0)
	typed := openflow.MatchAll()
	typed.Wildcards &^= openflow.WildInPort | openflow.WildDlType
	typed.InPort, typed.DlType = 3, netpkt.EtherTypeARP
	typedAdd := openflow.FlowMod{Command: openflow.FlowAdd, Match: typed, Priority: 100,
		Actions: []openflow.Action{openflow.Output(2)}}
	if _, err := tbl.Apply(typedAdd, now); err != nil {
		t.Fatal(err)
	}
	if got := len(tbl.cls.subs); got != 3 {
		t.Fatalf("%d subtables, want 3 (exact, in_port+dl_type, dl_dst)", got)
	}
	spoof := mfPacket(0x0b000001, 0x0c000001, 80)
	for _, c := range []struct {
		port   uint16
		probes int
	}{{9, 1}, {0, 1}, {5, 1}, {65535, 1}, {1, 2}, {4, 2}, {3, 3}} {
		e, probed := tbl.cls.find(&spoof, c.port)
		if e != nil {
			t.Fatalf("port %d: the spoof matched %v", c.port, e)
		}
		if probed != c.probes {
			t.Errorf("port %d: %d subtables probed, want %d", c.port, probed, c.probes)
		}
	}
	typedDel := typedAdd
	typedDel.Command, typedDel.OutPort = openflow.FlowDeleteStrict, openflow.PortNone
	if _, err := tbl.Apply(typedDel, now); err != nil {
		t.Fatal(err)
	}
	// Port 4 names exact rules 3, 7, …, 31; delete them all.
	for i, fm := range floodInstallRules(32, 0) {
		if i%4 == 3 {
			fm.Command, fm.OutPort = openflow.FlowDeleteStrict, openflow.PortNone
			if _, err := tbl.Apply(fm, now); err != nil {
				t.Fatal(err)
			}
		}
	}
	for port, want := range map[uint16]int{4: 1, 3: 2, 9: 1} {
		if _, probed := tbl.cls.find(&spoof, port); probed != want {
			t.Errorf("after the deletes, port %d: %d subtables probed, want %d", port, probed, want)
		}
	}
}

// BenchmarkTableAdd installs the flood_install rule set one add at a
// time; ns/op is per rule, and must not grow with the set.
func BenchmarkTableAdd(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("rules-%d", n), func(b *testing.B) {
			mods := floodInstallRules(32, n)
			now := time.Unix(1000, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += len(mods) {
				tbl := New(0)
				for j := 0; j < len(mods) && i+j < b.N; j++ {
					if _, err := tbl.Apply(mods[j], now); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkTableAddOneKey is the classifier's worst case: n rules that
// differ only in nw_dst under dl_type=0x0800 share one subtable key, so
// every add walks one chain. ns/op may grow with the set, but no faster
// than the set does — the cost of the linear scan this index replaced.
func BenchmarkTableAddOneKey(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("rules-%d", n), func(b *testing.B) {
			mods := make([]openflow.FlowMod, n)
			for i := range mods {
				m := openflow.MatchAll()
				m.Wildcards &^= openflow.WildDlType
				m.DlType = netpkt.EtherTypeIPv4
				m.SetNwDstMaskLen(32)
				m.NwDst = netpkt.IPv4(0x0a000000 + uint32(i))
				mods[i] = openflow.FlowMod{
					Command: openflow.FlowAdd, Match: m, Priority: 100,
					Actions: []openflow.Action{openflow.Output(2)},
				}
			}
			now := time.Unix(1000, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += len(mods) {
				tbl := New(0)
				for j := 0; j < len(mods) && i+j < b.N; j++ {
					if _, err := tbl.Apply(mods[j], now); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// TestLookupAllocatesNothing is the table's share of the engine's
// allocation-free packet path: against the flood_install rule set neither
// a matched lookup nor a spoofed, never-seen tuple may allocate.
func TestLookupAllocatesNothing(t *testing.T) {
	tbl := floodInstallTable(t, 32, 1000)
	now := time.Unix(1000, 0)
	hit := mfPacket(0x0a000100, 0x0a000200, 80)
	if allocs := testing.AllocsPerRun(1000, func() {
		if tbl.Lookup(&hit, 1, now, 64) == nil {
			t.Fatal("covered tuple missed")
		}
	}); allocs != 0 {
		t.Errorf("a matched lookup allocates %.1f times", allocs)
	}
	spoof := make([]netpkt.Packet, 1024)
	for i := range spoof {
		spoof[i] = mfPacket(0x0b000000+uint32(i), 0x0c000000+uint32(i), uint16(i))
	}
	i := 0
	if allocs := testing.AllocsPerRun(len(spoof)-1, func() {
		if tbl.Lookup(&spoof[i], 1, now, 64) != nil {
			t.Fatal("spoofed tuple matched")
		}
		i++
	}); allocs != 0 {
		t.Errorf("a missed lookup allocates %.1f times", allocs)
	}
}

// BenchmarkTableLookupMiss is the attack-path lookup: every packet a
// fresh spoofed tuple against the flood_install rule set.
func BenchmarkTableLookupMiss(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("rules-%d", n), func(b *testing.B) {
			tbl := floodInstallTable(b, 32, n)
			now := time.Unix(1000, 0)
			pkts := make([]netpkt.Packet, 1024)
			for i := range pkts {
				pkts[i] = mfPacket(0x0b000000+uint32(i), 0x0c000000+uint32(i), uint16(i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if tbl.Lookup(&pkts[i&1023], 1, now, 64) != nil {
					b.Fatal("spoofed tuple matched")
				}
			}
		})
	}
}

// BenchmarkTableLookupHit is wire_benign's lookup: 1 024 dl_dst rules,
// one per host, and 32 exact rules, with 256 flows between random hosts
// cycling. Every flow matches its destination's dl_dst rule, and the
// first 32 an exact rule too. ns/op is per packet.
func BenchmarkTableLookupHit(b *testing.B) {
	r := rand.New(rand.NewSource(0xF100D))
	hosts := make([]netpkt.MAC, 1024)
	tbl := New(0)
	now := time.Unix(1000, 0)
	add := func(m openflow.Match) {
		fm := openflow.FlowMod{Command: openflow.FlowAdd, Match: m, Priority: 100,
			Actions: []openflow.Action{openflow.Output(2)}}
		if _, err := tbl.Apply(fm, now); err != nil {
			b.Fatal(err)
		}
	}
	for i := range hosts {
		hosts[i] = netpkt.MACFromUint64(r.Uint64() &^ (1 << 40)) // unicast
		m := openflow.MatchAll()
		m.Wildcards &^= openflow.WildDlDst
		m.DlDst = hosts[i]
		add(m)
	}
	flows := make([]netpkt.Packet, 256)
	ports := make([]uint16, len(flows))
	for f := range flows {
		src, dst := r.Intn(len(hosts)), r.Intn(len(hosts))
		flows[f] = netpkt.Flow{
			SrcMAC: hosts[src], DstMAC: hosts[dst],
			SrcIP: netpkt.IPv4(0x0a000000 | uint32(src+1)), DstIP: netpkt.IPv4(0x0a000000 | uint32(dst+1)),
			Proto: netpkt.ProtoUDP, SrcPort: uint16(1024 + f), DstPort: 53,
		}.Packet(18)
		ports[f] = uint16(1 + src%8)
		if f < 32 {
			add(openflow.ExactFrom(&flows[f], ports[f]))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl.Lookup(&flows[i&255], ports[i&255], now, 64) == nil {
			b.Fatal("a benign flow missed")
		}
	}
}
