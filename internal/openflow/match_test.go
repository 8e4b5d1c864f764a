package openflow

import (
	"testing"

	"floodguard/internal/netpkt"
)

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

func TestMatchAllMatchesAnything(t *testing.T) {
	m := MatchAll()
	g := netpkt.NewSpoofGen(11, netpkt.FloodMixed, 16)
	for i := 0; i < 200; i++ {
		p := g.Next()
		if !m.Matches(&p, uint16(i%8+1)) {
			t.Fatalf("MatchAll failed to match %v", &p)
		}
	}
}

func TestExactFromMatchesOwnPacket(t *testing.T) {
	g := netpkt.NewSpoofGen(13, netpkt.FloodMixed, 16)
	for i := 0; i < 300; i++ {
		p := g.Next()
		inPort := uint16(i%6 + 1)
		m := ExactFrom(&p, inPort)
		if !m.Matches(&p, inPort) {
			t.Fatalf("ExactFrom match does not match its own packet %v (match %v)", &p, &m)
		}
		if m.Matches(&p, inPort+1) {
			t.Fatalf("ExactFrom match ignores in_port for %v", &p)
		}
	}
}

func TestExactFromRejectsOtherMicroflows(t *testing.T) {
	g := netpkt.NewSpoofGen(17, netpkt.FloodUDP, 16)
	base := g.Next()
	m := ExactFrom(&base, 1)
	for i := 0; i < 200; i++ {
		p := g.Next()
		if m.Matches(&p, 1) {
			t.Fatalf("exact match for %v also matched %v", &base, &p)
		}
	}
}

func TestMatchFieldSensitivity(t *testing.T) {
	base := udpPacket()
	m := ExactFrom(&base, 3)
	mutations := []struct {
		name   string
		mutate func(*netpkt.Packet)
	}{
		{"eth_src", func(p *netpkt.Packet) { p.EthSrc[5] ^= 1 }},
		{"eth_dst", func(p *netpkt.Packet) { p.EthDst[5] ^= 1 }},
		{"nw_src", func(p *netpkt.Packet) { p.NwSrc ^= 1 }},
		{"nw_dst", func(p *netpkt.Packet) { p.NwDst ^= 1 }},
		{"nw_proto", func(p *netpkt.Packet) { p.NwProto = netpkt.ProtoTCP }},
		{"nw_tos", func(p *netpkt.Packet) { p.NwTOS ^= 4 }},
		{"tp_src", func(p *netpkt.Packet) { p.TpSrc ^= 1 }},
		{"tp_dst", func(p *netpkt.Packet) { p.TpDst ^= 1 }},
	}
	for _, tt := range mutations {
		p := base
		tt.mutate(&p)
		if m.Matches(&p, 3) {
			t.Errorf("%s: exact match still matched after mutation", tt.name)
		}
	}
}

func TestMatchPrefix(t *testing.T) {
	m := MatchAll()
	m.Wildcards &^= WildDlType
	m.DlType = netpkt.EtherTypeIPv4
	m.NwDst = netpkt.MustIPv4("192.168.0.0")
	m.SetNwDstMaskLen(24)

	in := udpPacket()
	in.NwDst = netpkt.MustIPv4("192.168.0.77")
	if !m.Matches(&in, 1) {
		t.Error("prefix match rejected in-prefix packet")
	}
	out := udpPacket()
	out.NwDst = netpkt.MustIPv4("192.168.1.77")
	if m.Matches(&out, 1) {
		t.Error("prefix match accepted out-of-prefix packet")
	}
}

func TestMatchMaskLenRoundTrip(t *testing.T) {
	for bits := 0; bits <= 32; bits++ {
		var m Match
		m.SetNwSrcMaskLen(bits)
		if got := m.NwSrcMaskLen(); got != bits {
			t.Errorf("NwSrcMaskLen after Set(%d) = %d", bits, got)
		}
		m.SetNwDstMaskLen(bits)
		if got := m.NwDstMaskLen(); got != bits {
			t.Errorf("NwDstMaskLen after Set(%d) = %d", bits, got)
		}
	}
}

func TestMatchWildcardedDlTypeIgnoresL3(t *testing.T) {
	// With dl_type wildcarded, L3 constraints must not fire (OF 1.0
	// semantics: upper-layer fields require a concrete dl_type).
	m := MatchAll()
	m.Wildcards &^= WildNwProto
	m.NwProto = netpkt.ProtoTCP
	p := udpPacket() // UDP packet
	if !m.Matches(&p, 1) {
		t.Error("nw_proto constraint applied despite wildcarded dl_type")
	}
}

func TestMatchARPOpcode(t *testing.T) {
	m := MatchAll()
	m.Wildcards &^= WildDlType | WildNwProto
	m.DlType = netpkt.EtherTypeARP
	m.NwProto = uint8(netpkt.ARPRequest)

	req := netpkt.Flow{
		SrcMAC: netpkt.MustMAC("00:00:00:00:00:01"),
		SrcIP:  netpkt.MustIPv4("10.0.0.1"),
		DstIP:  netpkt.MustIPv4("10.0.0.2"),
	}.ARPRequestPacket()
	if !m.Matches(&req, 1) {
		t.Error("ARP request did not match opcode-constrained rule")
	}
	rep := req
	rep.ARPOp = netpkt.ARPReply
	if m.Matches(&rep, 1) {
		t.Error("ARP reply matched request-only rule")
	}
}

func TestMatchKeyNormalisesWildcardedFields(t *testing.T) {
	a := MatchAll()
	b := MatchAll()
	b.DlSrc = netpkt.MustMAC("de:ad:be:ef:00:01") // wildcarded, must not matter
	b.TpDst = 9999
	if a.Normalized() != b.Normalized() {
		t.Errorf("identities differ for logically equal matches:\n %+v\n %+v", a.Normalized(), b.Normalized())
	}
	if !a.Equal(&b) {
		t.Error("Equal() = false for logically equal matches")
	}
	c := MatchAll()
	c.Wildcards &^= WildDlSrc
	c.DlSrc = netpkt.MustMAC("de:ad:be:ef:00:01")
	if a.Equal(&c) {
		t.Error("Equal() = true for distinct matches")
	}
}

func TestMatchKeyNormalisesPrefixHostBits(t *testing.T) {
	a := MatchAll()
	a.Wildcards &^= WildDlType
	a.DlType = netpkt.EtherTypeIPv4
	a.NwDst = netpkt.MustIPv4("10.1.2.3")
	a.SetNwDstMaskLen(16)
	b := a
	b.NwDst = netpkt.MustIPv4("10.1.9.9") // same /16
	if a.Normalized() != b.Normalized() {
		t.Error("identities differ for prefixes equal up to mask length")
	}
	an, bn := a.Normalized(), b.Normalized()
	if a.Compare(&b) == 0 || an.Compare(&bn) != 0 {
		t.Error("Compare must order raw host bits apart and normalized matches together")
	}
}

func TestMatchString(t *testing.T) {
	m := MatchAll()
	if got := m.String(); got != "any" {
		t.Errorf("MatchAll().String() = %q, want \"any\"", got)
	}
	m.Wildcards &^= WildInPort
	m.InPort = 4
	if got := m.String(); got != "in_port=4" {
		t.Errorf("String() = %q", got)
	}
}

func TestMatchSpecificityOrder(t *testing.T) {
	// A packet matching an exact rule also matches the all-wildcard rule —
	// priority decides, not specificity. Here we just confirm both match.
	p := udpPacket()
	exact := ExactFrom(&p, 1)
	all := MatchAll()
	if !exact.Matches(&p, 1) || !all.Matches(&p, 1) {
		t.Error("specific and wildcard matches should both match the packet")
	}
}
