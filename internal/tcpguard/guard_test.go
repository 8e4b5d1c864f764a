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
	if st := g.ConnState(0, src, dst, 40000, 80); st != StateCookieSent {
		t.Fatalf("state after SYN %v, want cookie_sent", st)
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

	// FIN closes; stragglers are then consumed.
	fin := ack
	fin.TCPFlags = netpkt.TCPFin | netpkt.TCPAck
	if a := g.Process(0, 1, 3, &fin); a != ActionPass {
		t.Fatalf("FIN action %v", a)
	}
	if st := g.ConnState(0, src, dst, 40000, 80); st != StateClosed {
		t.Fatalf("state after FIN %v, want closed", st)
	}
	if a := g.Process(0, 1, 3, &data); a != ActionDrop {
		t.Fatalf("post-close data action %v, want drop", a)
	}

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
			// IdleWindows 1 so the COOKIE_SENT entry is swept before the
			// late ACK arrives — validation must be purely stateless.
			IdleWindows: 1,
			SynAck:      func(_ uint64, _ uint16, p netpkt.Packet) { sa = p }})
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
	if st := g.Stats(); st.Malformed != uint64(len(tests)) || st.Dropped != uint64(len(tests)) {
		t.Fatalf("stats %+v", st)
	}
}

// TestTableBudget pins the fixed-capacity contract: the table refuses
// inserts at its budget, the watermark records the peak, and a valid
// cookie still establishes a connection with the table full — the
// stateless codec, not the table, is the correctness anchor.
func TestTableBudget(t *testing.T) {
	var sa netpkt.Packet
	g := New(Config{Shards: 1, PerShardCapacity: 8, Secret: 2,
		SynAck: func(_ uint64, _ uint16, p netpkt.Packet) { sa = p }})
	dst := netpkt.MustIPv4("192.0.2.10")
	for i := 0; i < 32; i++ {
		syn := synPkt(netpkt.MustIPv4("10.9.0.1")+netpkt.IPv4(i), dst, 1024, 80, 1)
		if a := g.Process(0, 1, 3, &syn); a != ActionAnswer {
			t.Fatalf("SYN %d not answered at full table", i)
		}
	}
	st := g.Stats()
	if st.Entries > st.EntryBudget || st.Watermark > st.EntryBudget {
		t.Fatalf("table exceeded budget: %+v", st)
	}
	if st.TableFull != 32-8 {
		t.Fatalf("tableFull %d, want 24", st.TableFull)
	}

	// The 32nd source's entry was refused; its handshake must complete
	// regardless because the cookie is stateless.
	syn := synPkt(netpkt.MustIPv4("10.9.0.1")+31, dst, 1024, 80, 1)
	g.Process(0, 1, 3, &syn)
	ack := ackFor(syn, sa)
	if a := g.Process(0, 1, 3, &ack); a != ActionPass {
		t.Fatalf("full-table completion action %v, want pass", a)
	}
	if g.Stats().Established != 1 {
		t.Fatalf("established %d, want 1", g.Stats().Established)
	}
}

func TestIdleEviction(t *testing.T) {
	g := New(Config{Shards: 2, PerShardCapacity: 8, Secret: 3, IdleWindows: 2})
	dst := netpkt.MustIPv4("192.0.2.10")
	syn := synPkt(netpkt.MustIPv4("10.1.0.1"), dst, 40000, 80, 1)
	g.Process(1, 1, 3, &syn)
	if g.Stats().Entries != 1 {
		t.Fatalf("entries %d after SYN", g.Stats().Entries)
	}
	for i := 0; i < 2; i++ {
		g.AdvanceWindow()
		g.FlushShard(1)
		if g.Stats().Entries != 1 {
			t.Fatalf("entry evicted %d windows early", 2-i)
		}
	}
	g.AdvanceWindow()
	g.FlushShard(1)
	st := g.Stats()
	if st.Entries != 0 || st.Evicted != 1 {
		t.Fatalf("after idle horizon: %+v", st)
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
