package netpkt

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genValidPacket draws a packet that the codec is expected to round-trip
// exactly: one of the protocol families the flattened view fully encodes.
func genValidPacket(r *rand.Rand) Packet {
	p := Packet{
		PayloadLen: r.Intn(256),
	}
	for i := range p.EthSrc {
		p.EthSrc[i] = byte(r.Intn(256))
	}
	for i := range p.EthDst {
		p.EthDst[i] = byte(r.Intn(256))
	}
	switch r.Intn(5) {
	case 0: // ARP
		p.EthType = EtherTypeARP
		p.ARPOp = ARPReply
		p.NwSrc = IPv4(r.Uint32())
		p.NwDst = IPv4(r.Uint32())
		p.PayloadLen = 0
	case 1: // TCP
		p.EthType = EtherTypeIPv4
		p.NwProto = ProtoTCP
		p.NwSrc = IPv4(r.Uint32())
		p.NwDst = IPv4(r.Uint32())
		p.NwTOS = uint8(r.Intn(256)) &^ 0x03 // ECN bits unused
		p.TpSrc = uint16(r.Intn(65536))
		p.TpDst = uint16(r.Intn(65536))
		p.TCPFlags = uint8(r.Intn(32))
	case 2: // UDP
		p.EthType = EtherTypeIPv4
		p.NwProto = ProtoUDP
		p.NwSrc = IPv4(r.Uint32())
		p.NwDst = IPv4(r.Uint32())
		p.NwTOS = uint8(r.Intn(256)) &^ 0x03
		p.TpSrc = uint16(r.Intn(65536))
		p.TpDst = uint16(r.Intn(65536))
	case 3: // ICMP
		p.EthType = EtherTypeIPv4
		p.NwProto = ProtoICMP
		p.NwSrc = IPv4(r.Uint32())
		p.NwDst = IPv4(r.Uint32())
		p.TpSrc = uint16(ICMPEchoRequest)
		p.TpDst = 0
	default: // raw ethernet payload (e.g. LLDP)
		p.EthType = EtherTypeLLDP
	}
	if r.Intn(2) == 0 {
		p.HasVLAN = true
		p.VLANID = uint16(r.Intn(1 << 12))
		p.VLANPCP = uint8(r.Intn(8))
	}
	return p
}

func TestPacketMarshalParseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		give := genValidPacket(r)
		got, err := Parse(give.Marshal())
		if err != nil {
			t.Fatalf("case %d: Parse: %v (packet %v)", i, err, give)
		}
		if !reflect.DeepEqual(got, give) {
			t.Fatalf("case %d: round trip mismatch:\n give %+v\n got  %+v", i, give, got)
		}
	}
}

func TestParseARPRequestZeroesTargetMAC(t *testing.T) {
	f := Flow{
		SrcMAC: MustMAC("00:00:00:00:00:01"),
		SrcIP:  MustIPv4("10.0.0.1"),
		DstIP:  MustIPv4("10.0.0.2"),
	}
	req := f.ARPRequestPacket()
	frame := req.Marshal()
	p, err := Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !p.EthDst.IsBroadcast() {
		t.Errorf("ARP request dst = %v, want broadcast", p.EthDst)
	}
	// Parse does not keep the ARP MACs: read the target MAC off the wire.
	if tm := MAC(frame[ethHeaderLen+18 : ethHeaderLen+24]); !tm.IsZero() {
		t.Errorf("ARP request target MAC = %v, want zero", tm)
	}
	if p.ARPOp != ARPRequest {
		t.Errorf("opcode = %d, want %d", p.ARPOp, ARPRequest)
	}
}

func TestIPv4ChecksumValid(t *testing.T) {
	h := IPv4Header{TOS: 4, Protocol: ProtoUDP, Src: MustIPv4("10.0.0.1"), Dst: MustIPv4("10.0.0.2")}
	b := h.Encode(nil, 8)
	// Recomputing the checksum over a header with a valid checksum yields 0.
	if got := Checksum(b[:20]); got != 0 {
		t.Errorf("checksum over encoded header = %#04x, want 0", got)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: 0001 f203 f4f5 f6f7 -> checksum 0x220d.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b); got != 0x220d {
		t.Errorf("Checksum = %#04x, want 0x220d", got)
	}
}

// TestParseTruncated: a frame too short for its Ethernet header is an
// error wrapping ErrTruncated; a layer above it cut short is not, and
// leaves that layer's fields zero.
func TestParseTruncated(t *testing.T) {
	for _, n := range []int{0, 5, ethHeaderLen - 1} {
		if _, err := Parse(make([]byte, n)); !errors.Is(err, ErrTruncated) {
			t.Errorf("Parse(%d bytes) = %v, want ErrTruncated", n, err)
		}
	}
	tagged := Packet{EthType: EtherTypeLLDP, HasVLAN: true, VLANID: 7}
	if _, err := Parse(tagged.Marshal()[:ethVLANHeaderLen-1]); !errors.Is(err, ErrTruncated) {
		t.Errorf("Parse(short 802.1Q tag) = %v, want ErrTruncated", err)
	}
	flow := Flow{SrcIP: MustIPv4("10.0.0.1"), DstIP: MustIPv4("10.0.0.2"), SrcPort: 1, DstPort: 2}
	for _, c := range []struct {
		name  string
		proto uint8
		cut   int // bytes kept past the Ethernet header
	}{
		{"ipv4", ProtoUDP, 10},
		{"tcp", ProtoTCP, ipv4HeaderLen + 10},
		{"udp", ProtoUDP, ipv4HeaderLen + 3},
		{"icmp", ProtoICMP, ipv4HeaderLen + 3},
	} {
		flow.Proto = c.proto
		full := flow.Packet(0)
		p, err := Parse(full.Marshal()[:ethHeaderLen+c.cut])
		if err != nil {
			t.Errorf("%s: Parse = %v, want the frame kept", c.name, err)
		}
		if p.TpSrc != 0 || p.TpDst != 0 || p.PayloadLen != 0 {
			t.Errorf("%s: L4 fields %d>%d payload %d from a truncated header, want zero", c.name, p.TpSrc, p.TpDst, p.PayloadLen)
		}
	}
	arp := Packet{EthType: EtherTypeARP, ARPOp: ARPReply, NwSrc: 1, NwDst: 2}
	if p, err := Parse(arp.Marshal()[:ethHeaderLen+10]); err != nil || p.ARPOp != 0 || p.NwSrc != 0 {
		t.Errorf("short ARP: Parse = %+v, %v; want no ARP fields and no error", p, err)
	}
}

func TestParseToleratesMalformedUpperLayer(t *testing.T) {
	eth := Ethernet{Dst: Broadcast, Src: MustMAC("00:00:00:00:00:01"), EtherType: EtherTypeARP}
	frame := eth.Encode(nil) // no ARP body at all
	p, err := Parse(frame)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.EthType != EtherTypeARP {
		t.Errorf("EthType = %#04x, want ARP", p.EthType)
	}
	if p.ARPOp != 0 {
		t.Errorf("ARPOp = %d, want 0 (unparsed)", p.ARPOp)
	}
}

func TestPacketProtocolNames(t *testing.T) {
	tests := []struct {
		give Packet
		want string
	}{
		{Packet{EthType: EtherTypeARP}, "arp"},
		{Packet{EthType: EtherTypeIPv4, NwProto: ProtoTCP}, "tcp"},
		{Packet{EthType: EtherTypeIPv4, NwProto: ProtoUDP}, "udp"},
		{Packet{EthType: EtherTypeIPv4, NwProto: ProtoICMP}, "icmp"},
		{Packet{EthType: EtherTypeIPv4, NwProto: 47}, "ip"},
		{Packet{EthType: EtherTypeLLDP}, "l2"},
	}
	for _, tt := range tests {
		if got := tt.give.Protocol(); got != tt.want {
			t.Errorf("Protocol() = %q, want %q", got, tt.want)
		}
	}
}

func TestFlowKeyDistinguishesMicroflows(t *testing.T) {
	f := func(a, b Packet) bool {
		// Same header tuple => same key; the key ignores only payload/VLAN.
		if a.EthSrc == b.EthSrc && a.EthDst == b.EthDst && a.EthType == b.EthType &&
			a.NwSrc == b.NwSrc && a.NwDst == b.NwDst && a.NwProto == b.NwProto &&
			a.TpSrc == b.TpSrc && a.TpDst == b.TpDst {
			return a.Key() == b.Key()
		}
		return a.Key() != b.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
