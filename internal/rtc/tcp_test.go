package rtc

import (
	"sync"
	"testing"
	"time"

	"floodguard/internal/netpkt"
	"floodguard/internal/tcpguard"
)

// TestEngineTCPGuardTier drives a SYN flood plus one legitimate
// handshake through a guarded engine and pins the miss-path split:
// every SYN is answered at the shard (conservation includes the
// guard-consumed terms), the completing ACK reaches the cache, and the
// flood source becomes an attribution offender.
func TestEngineTCPGuardTier(t *testing.T) {
	var mu sync.Mutex
	var synacks []netpkt.Packet
	cfg := testEngineConfig(1)
	cfg.TCPGuard = &tcpguard.Config{
		Secret: 0xF100D,
		SynAck: func(_ uint64, _ uint16, sa netpkt.Packet) {
			mu.Lock()
			synacks = append(synacks, sa)
			mu.Unlock()
		},
	}
	e := New(cfg)
	e.Start()

	tcp := func(src netpkt.IPv4, sport uint16, flags uint8) netpkt.Packet {
		return netpkt.Packet{
			EthSrc:  netpkt.MustMAC("00:00:00:00:00:01"),
			EthDst:  netpkt.MustMAC("00:00:00:00:00:02"),
			EthType: netpkt.EtherTypeIPv4,
			NwSrc:   src, NwDst: netpkt.MustIPv4("192.0.2.10"),
			NwProto: netpkt.ProtoTCP, TpSrc: sport, TpDst: 80,
			TCPFlags: flags,
		}
	}
	atk := netpkt.MustIPv4("198.51.100.1")
	client := netpkt.MustIPv4("203.0.113.5")
	const floodSyns = 256
	for i := 0; i < floodSyns; i++ {
		p := tcp(atk, uint16(1024+i), netpkt.TCPSyn)
		for !e.InjectItem(Item{Pkt: p, InPort: 1}) {
			time.Sleep(time.Microsecond)
		}
	}
	// One legitimate handshake: SYN, then the cookie-completing ACK.
	syn := tcp(client, 40000, netpkt.TCPSyn)
	syn.TCPSeq = 7
	for !e.InjectItem(Item{Pkt: syn, InPort: 1}) {
		time.Sleep(time.Microsecond)
	}
	deadline := time.Now().Add(2 * time.Second)
	var sa netpkt.Packet
	for {
		mu.Lock()
		n := len(synacks)
		if n > 0 {
			sa = synacks[n-1] // the client's SYN-ACK is the last answered
		}
		mu.Unlock()
		if n >= floodSyns+1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if sa.TCPAck != syn.TCPSeq+1 {
		t.Fatalf("last SYN-ACK acks %d, want %d", sa.TCPAck, syn.TCPSeq+1)
	}
	ack := tcp(client, 40000, netpkt.TCPAck)
	ack.TCPSeq = sa.TCPAck
	ack.TCPAck = sa.TCPSeq + 1
	for !e.InjectItem(Item{Pkt: ack, InPort: 1}) {
		time.Sleep(time.Microsecond)
	}
	e.Stop()
	e.Attributor().Roll(50 * time.Millisecond)

	s := e.Snapshot()
	if s.SynAcked != floodSyns+1 {
		t.Fatalf("synAcked %d, want %d", s.SynAcked, floodSyns+1)
	}
	// Guard-consumed packets never reach the cache: only the completing
	// ACK was handed off.
	if got := s.Cache.Enqueued + s.CacheDrops; got != 1 {
		t.Fatalf("cache saw %d packets, want 1 (the completing ACK)", got)
	}
	if s.Misses != s.Cache.Enqueued+s.CacheDrops+s.SynAcked+s.GuardDropped {
		t.Fatalf("miss conservation broken: %+v", s)
	}
	if gs := e.TCPGuard().Stats(); gs.Established != 1 {
		t.Fatalf("guard stats %+v, want 1 established", gs)
	}
	if ev := e.Attributor().TCPSourceEvidence(atk); !ev.Offender {
		t.Fatalf("flood source not an offender: %+v", ev)
	}
	if ev := e.Attributor().TCPSourceEvidence(client); ev.Offender {
		t.Fatalf("completing client judged offender: %+v", ev)
	}
}

// TestEngineStopFoldsTCPEvidenceAfterLastFlush pins Stop's promise that
// the shards' final flush reaches the closing Roll. A shard flushes with
// no Roll after it, sees more verdicts, then the engine stops: the
// closing Roll must fold the verdicts of both flushes. The window is an
// hour, so neither the shards nor the cache stage flush or roll on a
// timer; the test's own flush stands in for a shard's timed one, taken
// while the shard waits for ingress with its partition free.
func TestEngineStopFoldsTCPEvidenceAfterLastFlush(t *testing.T) {
	cfg := testEngineConfig(1)
	cfg.Window = time.Hour
	cfg.TCPGuard = &tcpguard.Config{Secret: 0xF100D}
	e := New(cfg)
	e.Start()
	syns := func(src netpkt.IPv4, n int) {
		for i := 0; i < n; i++ {
			p := netpkt.Packet{
				EthType: netpkt.EtherTypeIPv4,
				NwSrc:   src, NwDst: netpkt.MustIPv4("192.0.2.10"),
				NwProto: netpkt.ProtoTCP, TpSrc: uint16(1024 + i), TpDst: 80,
				TCPFlags: netpkt.TCPSyn,
			}
			for !e.InjectItem(Item{Pkt: p, InPort: 1}) {
				time.Sleep(time.Microsecond)
			}
		}
	}
	early, late := netpkt.MustIPv4("198.51.100.1"), netpkt.MustIPv4("198.51.100.2")
	syns(early, 8)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if processed, _, _, _ := e.Counters(); processed == 8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the shard did not process the first SYNs")
		}
	}
	s := e.shards[0]
	// The shard holds its partition until it waits for ingress again.
	s.partMu.Lock()
	s.flush()
	s.partMu.Unlock()
	syns(late, 5)
	e.Stop()

	for _, c := range []struct {
		src  netpkt.IPv4
		syns uint64
	}{{early, 8}, {late, 5}} {
		if ev := e.Attributor().TCPSourceEvidence(c.src); ev.Syns != c.syns {
			t.Errorf("source %v: the closing Roll folded %d SYNs, want %d", c.src, ev.Syns, c.syns)
		}
	}
}
