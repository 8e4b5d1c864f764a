package tcpguard

import (
	"testing"
	"unsafe"

	"floodguard/internal/netpkt"
)

type verdictLog struct {
	got []Verdict
}

func (l *verdictLog) TCPVerdict(dpid uint64, inPort uint16, src netpkt.IPv4, v Verdict) {
	l.got = append(l.got, v)
}

func (l *verdictLog) last() Verdict {
	if len(l.got) == 0 {
		return VerdictNone
	}
	return l.got[len(l.got)-1]
}

func synPkt(src, dst netpkt.IPv4, sport, dport uint16, seq uint32) netpkt.Packet {
	return netpkt.Packet{
		EthSrc:  netpkt.MustMAC("00:00:00:00:00:01"),
		EthDst:  netpkt.MustMAC("00:00:00:00:00:02"),
		EthType: netpkt.EtherTypeIPv4,
		NwSrc:   src, NwDst: dst, NwProto: netpkt.ProtoTCP,
		TpSrc: sport, TpDst: dport,
		TCPFlags: netpkt.TCPSyn, TCPSeq: seq,
	}
}

func ackFor(syn netpkt.Packet, synack netpkt.Packet) netpkt.Packet {
	p := syn
	p.TCPFlags = netpkt.TCPAck
	p.TCPSeq = synack.TCPAck
	p.TCPAck = synack.TCPSeq + 1
	return p
}

// complete runs syn's handshake through g on shard i, computing the
// cookie the guard minted in its current window, and returns the
// completing ACK's action.
func complete(g *Guard, i int, syn netpkt.Packet) Action {
	g.Process(i, 1, 3, &syn)
	cookie := g.codec.Encode(syn.NwSrc, syn.NwDst, syn.TpSrc, syn.TpDst, g.window.Load())
	ack := ackFor(syn, netpkt.Packet{TCPSeq: cookie, TCPAck: syn.TCPSeq + 1})
	return g.Process(i, 1, 3, &ack)
}

func TestHandshakeLifecycle(t *testing.T) {
	var synacks []netpkt.Packet
	g := New(Config{Shards: 1, PerShardCapacity: 64, Secret: 0xF100D,
		SynAck: func(_ uint64, _ uint16, sa netpkt.Packet) { synacks = append(synacks, sa) }})
	obs := &verdictLog{}
	g.SetShardObserver(0, obs)

	src, dst := netpkt.MustIPv4("10.1.0.1"), netpkt.MustIPv4("192.0.2.10")
	syn := synPkt(src, dst, 40000, 80, 1234)
	if a := g.Process(0, 1, 3, &syn); a != ActionAnswer {
		t.Fatalf("SYN action %v, want ActionAnswer", a)
	}
	if obs.last() != VerdictSyn {
		t.Fatalf("SYN verdict %v", obs.last())
	}
	if len(synacks) != 1 {
		t.Fatalf("got %d SYN-ACKs, want 1", len(synacks))
	}
	sa := synacks[0]
	if sa.TCPFlags != netpkt.TCPSyn|netpkt.TCPAck || sa.TCPAck != 1235 || sa.NwSrc != dst || sa.NwDst != src {
		t.Fatalf("bad SYN-ACK %+v", sa)
	}
	if st := g.ConnState(0, src, dst, 40000, 80); st != StateNone {
		t.Fatalf("state after SYN %v, want none (a SYN claims no slot)", st)
	}

	ack := ackFor(syn, sa)
	if a := g.Process(0, 1, 3, &ack); a != ActionPass {
		t.Fatalf("valid ACK action %v, want ActionPass", a)
	}
	if obs.last() != VerdictCompletion {
		t.Fatalf("ACK verdict %v, want completion", obs.last())
	}
	if st := g.ConnState(0, src, dst, 40000, 80); st != StateEstablished {
		t.Fatalf("state after ACK %v, want established", st)
	}

	// Established data segments pass without verdicts.
	data := ack
	data.PayloadLen = 100
	n := len(obs.got)
	if a := g.Process(0, 1, 3, &data); a != ActionPass {
		t.Fatalf("data action %v", a)
	}
	if len(obs.got) != n {
		t.Fatalf("data segment emitted a verdict")
	}

	// FIN closes; stragglers whose cookie has expired are then
	// consumed silently.
	fin := ack
	fin.TCPFlags = netpkt.TCPFin | netpkt.TCPAck
	if a := g.Process(0, 1, 3, &fin); a != ActionPass {
		t.Fatalf("FIN action %v", a)
	}
	if st := g.ConnState(0, src, dst, 40000, 80); st != StateClosed {
		t.Fatalf("state after FIN %v, want closed", st)
	}
	g.AdvanceWindow()
	g.AdvanceWindow()
	n = len(obs.got)
	if a := g.Process(0, 1, 3, &data); a != ActionDrop {
		t.Fatalf("post-close data action %v, want drop", a)
	}
	if len(obs.got) != n {
		t.Fatalf("post-close straggler emitted verdict %v", obs.last())
	}

	g.FlushShard(0)
	st := g.Stats()
	if st.SynAnswered != 1 || st.Established != 1 || st.CookieFails != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestCookieWindowRollover pins the acceptance window: a cookie minted
// in window N validates in N and N+1 and is rejected from N+2 on, with
// the rejection surfacing as a CookieFail verdict.
func TestCookieWindowRollover(t *testing.T) {
	for _, windowsLater := range []uint32{0, 1, 2, 3} {
		var sa netpkt.Packet
		g := New(Config{Shards: 1, PerShardCapacity: 64, Secret: 0xF100D,
			SynAck: func(_ uint64, _ uint16, p netpkt.Packet) { sa = p }})
		obs := &verdictLog{}
		g.SetShardObserver(0, obs)

		syn := synPkt(netpkt.MustIPv4("10.1.0.1"), netpkt.MustIPv4("192.0.2.10"), 40000, 80, 7)
		g.Process(0, 1, 3, &syn)
		for i := uint32(0); i < windowsLater; i++ {
			g.AdvanceWindow()
			g.FlushShard(0)
		}
		ack := ackFor(syn, sa)
		a := g.Process(0, 1, 3, &ack)
		wantOK := windowsLater <= 1
		if ok := a == ActionPass && obs.last() == VerdictCompletion; ok != wantOK {
			t.Fatalf("+%d windows: action=%v verdict=%v, want ok=%t", windowsLater, a, obs.last(), wantOK)
		}
		if !wantOK && obs.last() != VerdictCookieFail {
			t.Fatalf("+%d windows: verdict %v, want cookie_fail", windowsLater, obs.last())
		}
	}
}

func TestMalformedVerdicts(t *testing.T) {
	g := New(Config{Shards: 1, PerShardCapacity: 16, Secret: 1})
	obs := &verdictLog{}
	g.SetShardObserver(0, obs)
	src, dst := netpkt.MustIPv4("10.1.0.1"), netpkt.MustIPv4("192.0.2.10")

	tests := []struct {
		name string
		mut  func(*netpkt.Packet)
		want Verdict
	}{
		{"null-scan", func(p *netpkt.Packet) { p.TCPFlags = 0 }, VerdictMalformedFlags},
		{"syn-fin", func(p *netpkt.Packet) { p.TCPFlags = netpkt.TCPSyn | netpkt.TCPFin }, VerdictMalformedFlags},
		{"syn-rst", func(p *netpkt.Packet) { p.TCPFlags = netpkt.TCPSyn | netpkt.TCPRst }, VerdictMalformedFlags},
		{"misaligned-options", func(p *netpkt.Packet) { p.TCPOptions = []byte{1, 1, 1} }, VerdictMalformedOffset},
		{"oversized-options", func(p *netpkt.Packet) { p.TCPOptions = make([]byte, 44) }, VerdictMalformedOffset},
		{"bad-tlv", func(p *netpkt.Packet) { p.TCPOptions = []byte{2, 40, 0, 0} }, VerdictMalformedOptions},
	}
	for _, tt := range tests {
		p := synPkt(src, dst, 40000, 80, 1)
		tt.mut(&p)
		if a := g.Process(0, 1, 3, &p); a != ActionDrop {
			t.Errorf("%s: action %v, want drop", tt.name, a)
		}
		if obs.last() != tt.want {
			t.Errorf("%s: verdict %v, want %v", tt.name, obs.last(), tt.want)
		}
	}
	g.FlushShard(0)
	if st := g.Stats(); st.Malformed != uint64(len(tests)) || st.Dropped != uint64(len(tests)) {
		t.Fatalf("stats %+v", st)
	}
}

// TestTableBudget pins the fixed-capacity contract: spoofed SYNs claim
// no slot, completions claim slots up to the budget, and a completion
// past it is counted Untracked yet still passes — the cookie, not the
// table, admits the handshake.
func TestTableBudget(t *testing.T) {
	g := New(Config{Shards: 1, PerShardCapacity: 8, Secret: 2})
	dst := netpkt.MustIPv4("192.0.2.10")
	for i := 0; i < 32; i++ {
		syn := synPkt(netpkt.MustIPv4("10.9.0.1")+netpkt.IPv4(i), dst, 1024, 80, 1)
		if a := g.Process(0, 1, 3, &syn); a != ActionAnswer {
			t.Fatalf("SYN %d not answered", i)
		}
	}
	g.FlushShard(0)
	if st := g.Stats(); st.Entries != 0 || st.Watermark != 0 || st.SynAnswered != 32 {
		t.Fatalf("spoofed SYNs claimed slots: %+v", st)
	}

	for i := 0; i < 12; i++ {
		syn := synPkt(netpkt.MustIPv4("10.8.0.1")+netpkt.IPv4(i), dst, 1024, 80, 1)
		if a := complete(g, 0, syn); a != ActionPass {
			t.Fatalf("completion %d action %v, want pass", i, a)
		}
	}
	g.FlushShard(0)
	st := g.Stats()
	if st.Entries != 8 || st.Watermark != 8 || st.Established != 12 || st.Untracked != 12-8 {
		t.Fatalf("after 12 completions on 8 slots: %+v", st)
	}
}

func TestIdleEviction(t *testing.T) {
	g := New(Config{Shards: 2, PerShardCapacity: 8, Secret: 3})
	syn := synPkt(netpkt.MustIPv4("10.1.0.1"), netpkt.MustIPv4("192.0.2.10"), 40000, 80, 1)
	a := complete(g, 1, syn)
	g.FlushShard(1)
	if a != ActionPass || g.Stats().Entries != 1 {
		t.Fatalf("completion action %v, entries %d", a, g.Stats().Entries)
	}
	for i := 0; i < idleWindows; i++ {
		g.AdvanceWindow()
		g.FlushShard(1)
		if g.Stats().Entries != 1 {
			t.Fatalf("entry evicted %d windows early", idleWindows-i)
		}
	}
	g.AdvanceWindow()
	g.FlushShard(1)
	st := g.Stats()
	if st.Entries != 0 || st.Evicted != 1 {
		t.Fatalf("after idle horizon: %+v", st)
	}
}

// TestBenignDataBehindSpoofedSyns is the north star on the SYN-proxy
// tier: a spoofed-SYN flood many times the table's budget must not
// cost benign connections their slots. Each benign client sends one
// data segment two windows after completing, when its cookie no longer
// validates, so only a tracked connection passes.
func TestBenignDataBehindSpoofedSyns(t *testing.T) {
	g := New(Config{Shards: 1, PerShardCapacity: 64, Secret: 0xF100D})
	obs := &verdictLog{}
	g.SetShardObserver(0, obs)
	dst := netpkt.MustIPv4("192.0.2.10")
	for i := 0; i < 1000; i++ {
		syn := synPkt(netpkt.IPv4(0xC6330000+i), dst, uint16(1024+i), 80, 1)
		g.Process(0, 1, 3, &syn)
	}

	const benign = 16
	var data [benign]netpkt.Packet
	for i := range data {
		syn := synPkt(netpkt.IPv4(0x0A010000+i), dst, 40000, 80, 7)
		if a := complete(g, 0, syn); a != ActionPass || obs.last() != VerdictCompletion {
			t.Fatalf("benign handshake %d: action %v verdict %v", i, a, obs.last())
		}
		cookie := g.codec.Encode(syn.NwSrc, dst, syn.TpSrc, 80, g.window.Load())
		data[i] = ackFor(syn, netpkt.Packet{TCPSeq: cookie, TCPAck: syn.TCPSeq + 1})
		data[i].PayloadLen = 100
	}
	for i := 0; i < 2; i++ {
		g.AdvanceWindow()
		g.FlushShard(0)
	}
	for i := range data {
		if a := g.Process(0, 1, 3, &data[i]); a != ActionPass {
			t.Errorf("benign data segment %d action %v, want pass", i, a)
		}
	}
	for _, v := range obs.got {
		if v == VerdictCookieFail {
			t.Fatalf("cookie failure booked against a benign source: %+v", g.Stats())
		}
	}
}

// TestReopenClosedTuple pins the Closed-slot contract: a 4-tuple that
// is FIN-closed and reopened before the next sweep establishes again
// on its valid cookie, while a stray ACK on the Closed slot is dropped
// with no verdict.
func TestReopenClosedTuple(t *testing.T) {
	var sa netpkt.Packet
	g := New(Config{Shards: 1, PerShardCapacity: 64, Secret: 0xF100D,
		SynAck: func(_ uint64, _ uint16, p netpkt.Packet) { sa = p }})
	obs := &verdictLog{}
	g.SetShardObserver(0, obs)
	src, dst := netpkt.MustIPv4("10.1.0.1"), netpkt.MustIPv4("192.0.2.10")
	fin := func(ack netpkt.Packet) {
		ack.TCPFlags = netpkt.TCPFin | netpkt.TCPAck
		if a := g.Process(0, 1, 3, &ack); a != ActionPass {
			t.Fatalf("FIN action %v", a)
		}
		if st := g.ConnState(0, src, dst, 40000, 80); st != StateClosed {
			t.Fatalf("state after FIN %v, want closed", st)
		}
	}

	syn := synPkt(src, dst, 40000, 80, 100)
	g.Process(0, 1, 3, &syn)
	ack := ackFor(syn, sa)
	g.Process(0, 1, 3, &ack)
	fin(ack)

	syn.TCPSeq = 5000
	g.Process(0, 1, 3, &syn)
	ack = ackFor(syn, sa)
	if a := g.Process(0, 1, 3, &ack); a != ActionPass || obs.last() != VerdictCompletion {
		t.Fatalf("reopen ACK: action %v verdict %v, want pass + completion", a, obs.last())
	}
	if st := g.ConnState(0, src, dst, 40000, 80); st != StateEstablished {
		t.Fatalf("state after reopen %v, want established", st)
	}

	fin(ack)
	stray := ack
	stray.TCPAck += 1 << 20
	n := len(obs.got)
	if a := g.Process(0, 1, 3, &stray); a != ActionDrop {
		t.Fatalf("stray ACK action %v, want drop", a)
	}
	if len(obs.got) != n {
		t.Fatalf("stray ACK emitted verdict %v", obs.last())
	}
	g.FlushShard(0)
	if st := g.Stats(); st.Established != 2 || st.CookieFails != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestStatsPublishedAtFlush pins the counter contract: the shard counts
// in plain memory, so Stats does not move while the shard processes and
// equals the exact counts after each FlushShard.
func TestStatsPublishedAtFlush(t *testing.T) {
	g := New(Config{Shards: 2, PerShardCapacity: 8, Secret: 4})
	dst := netpkt.MustIPv4("192.0.2.10")
	for round := 1; round <= 3; round++ {
		before := g.Stats()
		for i := 0; i < 10; i++ {
			syn := synPkt(netpkt.MustIPv4("10.9.0.1")+netpkt.IPv4(i), dst, 1024, 80, 1)
			g.Process(1, 1, 3, &syn)
			bad := syn
			bad.TCPFlags = 0
			g.Process(1, 1, 3, &bad)
		}
		complete(g, 1, synPkt(netpkt.MustIPv4("10.8.0.1")+netpkt.IPv4(round), dst, 1024, 80, 1))
		if mid := g.Stats(); mid != before {
			t.Fatalf("round %d: Stats moved before the flush: %+v -> %+v", round, before, mid)
		}
		g.FlushShard(0)
		if mid := g.Stats(); mid != before {
			t.Fatalf("round %d: flushing shard 0 published shard 1: %+v", round, mid)
		}
		g.FlushShard(1)
		st := g.Stats()
		want := uint64(round)
		if st.SynAnswered != 11*want || st.Malformed != 10*want || st.Dropped != 10*want ||
			st.Established != want || st.Entries != round || st.Watermark != round {
			t.Fatalf("round %d: after flush %+v", round, st)
		}
	}
}

func TestCodecProperties(t *testing.T) {
	c := NewCodec(0xF100D)
	src, dst := netpkt.MustIPv4("10.0.0.1"), netpkt.MustIPv4("192.0.2.1")
	k := c.Encode(src, dst, 1234, 80, 10)
	if !c.Validate(src, dst, 1234, 80, 10, k) || !c.Validate(src, dst, 1234, 80, 11, k) {
		t.Fatal("cookie rejected inside its acceptance window")
	}
	if c.Validate(src, dst, 1234, 80, 12, k) || c.Validate(src, dst, 1234, 80, 9, k) {
		t.Fatal("cookie accepted outside its acceptance window")
	}
	// Any tuple perturbation must invalidate.
	if c.Validate(src+1, dst, 1234, 80, 10, k) || c.Validate(src, dst, 1235, 80, 10, k) ||
		c.Validate(src, dst, 1234, 81, 10, k) {
		t.Fatal("perturbed tuple validated")
	}
	// Distinct codecs disagree.
	if NewCodec(0xBAD).Validate(src, dst, 1234, 80, 10, k) {
		t.Fatal("cookie validated under a different secret")
	}
}

// TestGuardShardStrideIsCacheLines pins guardShard's padding: the
// []guardShard stride must be a whole number of 64-byte cache lines, or
// one shard's counters share a line with its neighbour's.
func TestGuardShardStrideIsCacheLines(t *testing.T) {
	if n := unsafe.Sizeof(guardShard{}); n%64 != 0 {
		t.Errorf("guardShard is %d B, not a multiple of 64: resize its pad", n)
	}
}
