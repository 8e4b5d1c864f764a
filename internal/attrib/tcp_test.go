package attrib

import (
	"testing"
	"time"

	"floodguard/internal/dpcache"
	"floodguard/internal/netpkt"
	"floodguard/internal/tcpguard"
)

func tcpPkt(src netpkt.IPv4, flags uint8) netpkt.Packet {
	return netpkt.Packet{
		EthSrc:  netpkt.MustMAC("00:00:00:00:00:01"),
		EthDst:  netpkt.MustMAC("00:00:00:00:00:02"),
		EthType: netpkt.EtherTypeIPv4,
		NwSrc:   src, NwDst: netpkt.MustIPv4("192.0.2.10"),
		NwProto: netpkt.ProtoTCP, TpSrc: 40000, TpDst: 80,
		TCPFlags: flags,
	}
}

// TestTCPEvidenceOffender drives a flood of unanswered SYNs through the
// guard→shard-observer→attributor chain and checks the source becomes
// an offender whose packets hint suspect — without any port-level rate
// excursion.
func TestTCPEvidenceOffender(t *testing.T) {
	a := New(Config{TCPMinSyns: 8})
	obs := a.NewShardObserver()
	g := tcpguard.New(tcpguard.Config{Shards: 1, Secret: 0xF100D})
	g.SetShardObserver(0, obs)

	atk := netpkt.MustIPv4("198.51.100.1")
	for i := 0; i < 32; i++ {
		p := tcpPkt(atk, netpkt.TCPSyn)
		p.TpSrc = uint16(1024 + i)
		g.Process(0, 1, 9, &p)
	}
	obs.Flush()
	a.Roll(100 * time.Millisecond)

	ev := a.TCPSourceEvidence(atk)
	if ev.Syns != 32 || ev.Completions != 0 || !ev.Offender {
		t.Fatalf("evidence %+v, want 32 SYNs, 0 completions, offender", ev)
	}
	if a.TCPOffenders() != 1 {
		t.Fatalf("offenders %d, want 1", a.TCPOffenders())
	}
	p := tcpPkt(atk, netpkt.TCPSyn)
	if h := a.Hint(1, 9, &p); h != dpcache.HintSuspect {
		t.Fatalf("offender hinted %d, want suspect", h)
	}
	// A source that completes its handshakes stays benign.
	benign := tcpPkt(netpkt.MustIPv4("10.0.0.1"), netpkt.TCPSyn)
	if h := a.Hint(1, 3, &benign); h != dpcache.HintBenign {
		t.Fatalf("unseen source hinted %d, want benign", h)
	}
}

// TestTCPRolloverRejectionSurfacesAsVerdict is the end-to-end form of
// the cookie-window satellite: an ACK minted in window N and presented
// in N+2 is rejected, and the rejection shows up in attribution as a
// CookieFail record that (past the floor) brands the source suspect.
func TestTCPRolloverRejectionSurfacesAsVerdict(t *testing.T) {
	a := New(Config{TCPMinSyns: 4})
	obs := a.NewShardObserver()
	var sa netpkt.Packet
	g := tcpguard.New(tcpguard.Config{Shards: 1, Secret: 0xF100D,
		SynAck: func(_ uint64, _ uint16, p netpkt.Packet) { sa = p }})
	g.SetShardObserver(0, obs)

	replayer := netpkt.MustIPv4("198.51.100.7")
	// Harvest one cookie in window N, then replay its ACK (with fresh
	// source ports re-harvesting nothing) two windows later.
	for i := 0; i < 8; i++ {
		syn := tcpPkt(replayer, netpkt.TCPSyn)
		syn.TpSrc = uint16(2000 + i)
		g.Process(0, 1, 9, &syn)
		ack := syn
		ack.TCPFlags = netpkt.TCPAck
		ack.TCPSeq = sa.TCPAck
		ack.TCPAck = sa.TCPSeq + 1
		g.AdvanceWindow()
		g.FlushShard(0)
		g.AdvanceWindow()
		g.FlushShard(0)
		if got := g.Process(0, 1, 9, &ack); got != tcpguard.ActionDrop {
			t.Fatalf("stale ACK %d not dropped (action %v)", i, got)
		}
	}
	obs.Flush()
	a.Roll(100 * time.Millisecond)

	ev := a.TCPSourceEvidence(replayer)
	if ev.CookieFails != 8 {
		t.Fatalf("cookie fails %d, want 8", ev.CookieFails)
	}
	if !ev.Offender {
		t.Fatalf("replayer not judged offender: %+v", ev)
	}
	p := tcpPkt(replayer, netpkt.TCPAck)
	if h := a.Hint(1, 9, &p); h != dpcache.HintSuspect {
		t.Fatalf("replayer hinted %d, want suspect", h)
	}
}

// TestTCPBenignEvidenceBehindSpoofedSyns is the attribution leg of
// tcpguard's TestBenignDataBehindSpoofedSyns: benign clients that
// complete behind a spoofed-SYN flood many times the conn table's
// budget, then send data two windows later, carry no cookie failure in
// their evidence.
func TestTCPBenignEvidenceBehindSpoofedSyns(t *testing.T) {
	a := New(Config{TCPMinSyns: 8})
	obs := a.NewShardObserver()
	var sa netpkt.Packet
	g := tcpguard.New(tcpguard.Config{Shards: 1, PerShardCapacity: 64, Secret: 0xF100D,
		SynAck: func(_ uint64, _ uint16, p netpkt.Packet) { sa = p }})
	g.SetShardObserver(0, obs)

	for i := 0; i < 1000; i++ {
		syn := tcpPkt(netpkt.IPv4(0xC6330000+i), netpkt.TCPSyn)
		g.Process(0, 1, 9, &syn)
	}
	var data [16]netpkt.Packet
	for i := range data {
		syn := tcpPkt(netpkt.IPv4(0x0A010000+i), netpkt.TCPSyn)
		g.Process(0, 1, 3, &syn)
		data[i] = syn
		data[i].TCPFlags = netpkt.TCPAck
		data[i].TCPSeq = sa.TCPAck
		data[i].TCPAck = sa.TCPSeq + 1
		if got := g.Process(0, 1, 3, &data[i]); got != tcpguard.ActionPass {
			t.Fatalf("benign handshake %d action %v", i, got)
		}
		data[i].PayloadLen = 100
	}
	for i := 0; i < 2; i++ {
		g.AdvanceWindow()
		g.FlushShard(0)
	}
	for i := range data {
		g.Process(0, 1, 3, &data[i])
	}
	obs.Flush()
	a.Roll(100 * time.Millisecond)

	for i := range data {
		if ev := a.TCPSourceEvidence(data[i].NwSrc); ev.Completions != 1 || ev.CookieFails != 0 {
			t.Errorf("benign source %d evidence %+v, want 1 completion and 0 cookie fails", i, ev)
		}
	}
}

// TestTCPEvidenceBoundsAndDecay pins the memory contract: the table is
// pruned back to TCPMaxSources at Roll (worst SYN sources kept), and
// idle records decay to deletion on the sketch cadence.
func TestTCPEvidenceBoundsAndDecay(t *testing.T) {
	a := New(Config{TCPMaxSources: 16, TCPMinSyns: 4, DecayEveryWindows: 2})
	obs := a.NewShardObserver()
	g := tcpguard.New(tcpguard.Config{Shards: 1, Secret: 1})
	g.SetShardObserver(0, obs)

	// 64 sources; source i sends i+1 SYNs so the keep-set is exact.
	for i := 0; i < 64; i++ {
		src := netpkt.IPv4(0xC6336400 + uint32(i))
		for n := 0; n <= i; n++ {
			p := tcpPkt(src, netpkt.TCPSyn)
			p.TpSrc = uint16(1024 + n)
			g.Process(0, 1, 9, &p)
		}
	}
	obs.Flush()
	a.Roll(100 * time.Millisecond)
	if n := a.TCPTrackedSources(); n != 16 {
		t.Fatalf("tracked %d sources after Roll, want 16", n)
	}
	// The loudest source survived; the quietest did not.
	if ev := a.TCPSourceEvidence(netpkt.IPv4(0xC6336400 + 63)); ev.Syns == 0 {
		t.Fatal("loudest source pruned")
	}
	if ev := a.TCPSourceEvidence(netpkt.IPv4(0xC6336400)); ev.Syns != 0 {
		t.Fatal("quietest source kept over louder ones")
	}

	// With no new evidence, decay halves counts each DecayEveryWindows
	// roll until the records disappear entirely.
	for i := 0; i < 20 && a.TCPTrackedSources() > 0; i++ {
		a.Roll(100 * time.Millisecond)
	}
	if n := a.TCPTrackedSources(); n != 0 {
		t.Fatalf("%d records survived full decay", n)
	}
}
