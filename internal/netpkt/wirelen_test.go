package netpkt

import (
	"bytes"
	"testing"
)

// packetShapes covers every marshal branch: plain L2, VLAN, ARP, and
// IPv4 with TCP/UDP/ICMP/other protocols, with and without payloads.
func packetShapes() map[string]Packet {
	src := MustMAC("00:00:00:00:00:01")
	dst := MustMAC("00:00:00:00:00:02")
	return map[string]Packet{
		"l2": {EthSrc: src, EthDst: dst, EthType: 0x1234},
		"l2-payload": {
			EthSrc: src, EthDst: dst, EthType: 0x1234, PayloadLen: 777,
		},
		"l2-vlan": {
			EthSrc: src, EthDst: dst, EthType: 0x1234,
			HasVLAN: true, VLANID: 100, VLANPCP: 3, PayloadLen: 9,
		},
		"arp-request": {
			EthSrc: src, EthDst: dst, EthType: EtherTypeARP, ARPOp: ARPRequest,
			NwSrc: MustIPv4("10.0.0.1"), NwDst: MustIPv4("10.0.0.2"),
		},
		"arp-reply": {
			EthSrc: src, EthDst: dst, EthType: EtherTypeARP, ARPOp: ARPReply,
			NwSrc: MustIPv4("10.0.0.2"), NwDst: MustIPv4("10.0.0.1"),
		},
		"tcp": {
			EthSrc: src, EthDst: dst, EthType: EtherTypeIPv4, NwProto: ProtoTCP,
			NwSrc: MustIPv4("10.0.0.1"), NwDst: MustIPv4("10.0.0.2"),
			TpSrc: 4321, TpDst: 80, TCPFlags: TCPSyn,
		},
		"tcp-payload": {
			EthSrc: src, EthDst: dst, EthType: EtherTypeIPv4, NwProto: ProtoTCP,
			NwSrc: MustIPv4("10.0.0.1"), NwDst: MustIPv4("10.0.0.2"),
			TpSrc: 4321, TpDst: 80, PayloadLen: 1000,
		},
		"udp": {
			EthSrc: src, EthDst: dst, EthType: EtherTypeIPv4, NwProto: ProtoUDP,
			NwSrc: MustIPv4("10.0.0.1"), NwDst: MustIPv4("10.0.0.2"),
			TpSrc: 53, TpDst: 53, PayloadLen: 64,
		},
		"icmp": {
			EthSrc: src, EthDst: dst, EthType: EtherTypeIPv4, NwProto: ProtoICMP,
			NwSrc: MustIPv4("10.0.0.1"), NwDst: MustIPv4("10.0.0.2"),
			TpSrc: uint16(ICMPEchoRequest), PayloadLen: 31,
		},
		"ip-other-proto": {
			EthSrc: src, EthDst: dst, EthType: EtherTypeIPv4, NwProto: 47,
			NwSrc: MustIPv4("10.0.0.1"), NwDst: MustIPv4("10.0.0.2"),
			PayloadLen: 40,
		},
		"vlan-tcp": {
			EthSrc: src, EthDst: dst, EthType: EtherTypeIPv4, NwProto: ProtoTCP,
			HasVLAN: true, VLANID: 7, NwTOS: 0x20,
			NwSrc: MustIPv4("10.0.0.1"), NwDst: MustIPv4("10.0.0.2"),
			TpSrc: 1, TpDst: 2, PayloadLen: 3,
		},
	}
}

func TestWireLenMatchesMarshal(t *testing.T) {
	for name, p := range packetShapes() {
		if got, want := p.WireLen(), len(p.Marshal()); got != want {
			t.Errorf("%s: WireLen() = %d, len(Marshal()) = %d", name, got, want)
		}
	}
}

func TestMarshalAppendMatchesMarshal(t *testing.T) {
	for name, p := range packetShapes() {
		want := p.Marshal()
		// Appending to a dirty reused buffer must yield identical bytes.
		buf := bytes.Repeat([]byte{0xa5}, 64)
		got := p.MarshalAppend(buf[:0])
		if !bytes.Equal(got, want) {
			t.Errorf("%s: MarshalAppend differs from Marshal\n got %x\nwant %x", name, got, want)
		}
		prefix := []byte{1, 2, 3}
		got = p.MarshalAppend(prefix)
		if !bytes.Equal(got[:3], prefix) || !bytes.Equal(got[3:], want) {
			t.Errorf("%s: MarshalAppend with prefix corrupted output", name)
		}
	}
}
