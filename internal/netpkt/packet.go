package netpkt

import (
	"fmt"
	"strings"
)

// Packet is the flattened header view an OpenFlow 1.0 data plane matches
// on, together with the raw frame bytes. It is the unit of traffic in the
// simulator and the payload of packet_in / packet_out messages.
type Packet struct {
	// L2.
	EthSrc  MAC
	EthDst  MAC
	EthType uint16
	HasVLAN bool
	VLANID  uint16
	VLANPCP uint8

	// ARP (valid when EthType == EtherTypeARP).
	ARPOp uint16

	// L3 (valid when EthType == EtherTypeIPv4; ARP reuses NwSrc/NwDst for
	// its sender/target addresses, mirroring OpenFlow 1.0 match semantics).
	NwSrc   IPv4
	NwDst   IPv4
	NwProto uint8
	NwTOS   uint8

	// L4 (valid for TCP/UDP; ICMP reuses TpSrc/TpDst for type/code,
	// mirroring OpenFlow 1.0).
	TpSrc uint16
	TpDst uint16

	// TCP sequencing and options (valid when NwProto == ProtoTCP). The
	// SYN-proxy tier needs the real seq/ack numbers to mint and validate
	// stateless cookies, and the raw option bytes to judge structural
	// validity. TCPOptions may alias the parsed frame and is nil on the
	// packets the hot-path generators build; Marshal pads it to the
	// 4-byte data-offset granularity, so a round-tripped packet carries
	// the padded block.
	TCPFlags   uint8
	TCPSeq     uint32
	TCPAck     uint32
	TCPOptions []byte

	// PayloadLen is the L4 payload length in bytes; the simulator tracks
	// it for bandwidth accounting without carrying the bytes around.
	PayloadLen int
}

// WireLen returns the on-the-wire frame length in bytes, computed
// arithmetically — it never materialises the frame. It always equals
// len(p.Marshal()).
func (p *Packet) WireLen() int {
	n := ethHeaderLen
	if p.HasVLAN {
		n = ethVLANHeaderLen
	}
	switch p.EthType {
	case EtherTypeARP:
		return n + arpLen
	case EtherTypeIPv4:
		return n + ipv4HeaderLen + p.l4Len()
	default:
		return n + p.PayloadLen
	}
}

// l4Len returns the encoded length of the L4 header plus payload for an
// IPv4 packet.
func (p *Packet) l4Len() int {
	switch p.NwProto {
	case ProtoTCP:
		return tcpHeaderLen + tcpOptionsWireLen(len(p.TCPOptions)) + p.PayloadLen
	case ProtoUDP:
		return udpHeaderLen + p.PayloadLen
	case ProtoICMP:
		return icmpHeaderLen + p.PayloadLen
	default:
		return p.PayloadLen
	}
}

// IsIP reports whether p carries IPv4.
func (p *Packet) IsIP() bool { return p.EthType == EtherTypeIPv4 }

// IsARP reports whether p carries ARP.
func (p *Packet) IsARP() bool { return p.EthType == EtherTypeARP }

// Protocol returns a short name of the innermost protocol for the data
// plane cache's classifier.
func (p *Packet) Protocol() string {
	switch {
	case p.IsARP():
		return "arp"
	case !p.IsIP():
		return "l2"
	case p.NwProto == ProtoTCP:
		return "tcp"
	case p.NwProto == ProtoUDP:
		return "udp"
	case p.NwProto == ProtoICMP:
		return "icmp"
	default:
		return "ip"
	}
}

// String renders a compact human-readable summary.
func (p *Packet) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s>%s", p.EthSrc, p.EthDst)
	switch {
	case p.IsARP():
		op := "req"
		if p.ARPOp == ARPReply {
			op = "rep"
		}
		fmt.Fprintf(&b, " arp-%s %s>%s", op, p.NwSrc, p.NwDst)
	case p.IsIP():
		fmt.Fprintf(&b, " %s %s:%d>%s:%d tos=%d", p.Protocol(), p.NwSrc, p.TpSrc, p.NwDst, p.TpDst, p.NwTOS)
	default:
		fmt.Fprintf(&b, " ethertype=%#04x", p.EthType)
	}
	return b.String()
}

// Marshal encodes p as a full wire-format frame in a single exact-size
// allocation. Hot paths that can bound the frame's lifetime should prefer
// MarshalAppend with a reused buffer.
func (p *Packet) Marshal() []byte {
	return p.MarshalAppend(make([]byte, 0, p.WireLen()))
}

// MarshalAppend appends the wire-format frame to b and returns the
// extended slice, allocating only if b lacks capacity. The caller owns
// the returned slice; p retains no reference to it, so the buffer may be
// reused for the next packet once the frame is consumed.
func (p *Packet) MarshalAppend(b []byte) []byte {
	eth := Ethernet{
		Dst:       p.EthDst,
		Src:       p.EthSrc,
		EtherType: p.EthType,
		HasVLAN:   p.HasVLAN,
		VLANID:    p.VLANID,
		VLANPCP:   p.VLANPCP,
	}
	b = eth.Encode(b)
	switch p.EthType {
	case EtherTypeARP:
		arp := ARP{
			Opcode:    p.ARPOp,
			SenderMAC: p.EthSrc,
			SenderIP:  p.NwSrc,
			TargetMAC: p.EthDst,
			TargetIP:  p.NwDst,
		}
		if arp.Opcode == ARPRequest {
			arp.TargetMAC = MAC{}
		}
		b = arp.Encode(b)
	case EtherTypeIPv4:
		h := IPv4Header{TOS: p.NwTOS, Protocol: p.NwProto, Src: p.NwSrc, Dst: p.NwDst}
		b = h.Encode(b, p.l4Len())
		switch p.NwProto {
		case ProtoTCP:
			t := TCPHeader{
				SrcPort: p.TpSrc, DstPort: p.TpDst,
				Seq: p.TCPSeq, Ack: p.TCPAck,
				Flags: p.TCPFlags, Options: p.TCPOptions,
			}
			b = t.Encode(b)
			b = appendZeros(b, p.PayloadLen)
		case ProtoUDP:
			u := UDPHeader{SrcPort: p.TpSrc, DstPort: p.TpDst}
			b = u.Encode(b, p.PayloadLen)
			b = appendZeros(b, p.PayloadLen)
		case ProtoICMP:
			// A zero payload contributes nothing to the RFC 1071 sum, so
			// encoding the header alone yields the same checksum bytes.
			ic := ICMPHeader{Type: uint8(p.TpSrc), Code: uint8(p.TpDst)}
			b = ic.Encode(b, nil)
			b = appendZeros(b, p.PayloadLen)
		default:
			b = appendZeros(b, p.PayloadLen)
		}
	default:
		b = appendZeros(b, p.PayloadLen)
	}
	return b
}

// zeroPad backs appendZeros; the simulator carries payload lengths, not
// payload bytes, so marshalled payloads are always zero-filled.
var zeroPad [512]byte

func appendZeros(b []byte, n int) []byte {
	for n > len(zeroPad) {
		b = append(b, zeroPad[:]...)
		n -= len(zeroPad)
	}
	return append(b, zeroPad[:n]...)
}

// Parse decodes a wire-format frame into the flattened view. Unknown upper
// layers are tolerated: the fields for layers that fail to parse stay zero
// and no error is returned unless the Ethernet header itself is invalid.
func Parse(frame []byte) (Packet, error) {
	var p Packet
	eth, rest, err := DecodeEthernet(frame)
	if err != nil {
		return p, err
	}
	p.EthSrc = eth.Src
	p.EthDst = eth.Dst
	p.EthType = eth.EtherType
	p.HasVLAN = eth.HasVLAN
	p.VLANID = eth.VLANID
	p.VLANPCP = eth.VLANPCP

	switch eth.EtherType {
	case EtherTypeARP:
		arp, err := DecodeARP(rest)
		if err != nil {
			return p, nil //nolint:nilerr // tolerate malformed upper layer
		}
		p.ARPOp = arp.Opcode
		p.NwSrc = arp.SenderIP
		p.NwDst = arp.TargetIP
	case EtherTypeIPv4:
		h, l4, err := DecodeIPv4(rest)
		if err != nil {
			return p, nil //nolint:nilerr
		}
		p.NwSrc = h.Src
		p.NwDst = h.Dst
		p.NwProto = h.Protocol
		p.NwTOS = h.TOS
		switch h.Protocol {
		case ProtoTCP:
			t, payload, err := DecodeTCP(l4)
			if err == nil {
				p.TpSrc = t.SrcPort
				p.TpDst = t.DstPort
				p.TCPFlags = t.Flags
				p.TCPSeq = t.Seq
				p.TCPAck = t.Ack
				p.TCPOptions = t.Options
				p.PayloadLen = len(payload)
			}
		case ProtoUDP:
			u, payload, err := DecodeUDP(l4)
			if err == nil {
				p.TpSrc = u.SrcPort
				p.TpDst = u.DstPort
				p.PayloadLen = len(payload)
			}
		case ProtoICMP:
			ic, payload, err := DecodeICMP(l4)
			if err == nil {
				p.TpSrc = uint16(ic.Type)
				p.TpDst = uint16(ic.Code)
				p.PayloadLen = len(payload)
			}
		default:
			p.PayloadLen = len(l4)
		}
	default:
		p.PayloadLen = len(rest)
	}
	return p, nil
}
