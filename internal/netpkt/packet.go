package netpkt

import (
	"encoding/binary"
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

// The errors Parse returns. Each wraps ErrTruncated and is built once,
// so a refused frame costs no allocation.
var (
	errEthTruncated  = fmt.Errorf("ethernet: %w", ErrTruncated)
	errVLANTruncated = fmt.Errorf("ethernet 802.1q: %w", ErrTruncated)
)

// Parse decodes a wire-format frame into the flattened view, writing each
// field straight into the Packet it returns. Only a frame too short for
// its Ethernet header (802.1Q tag included) is an error, and then the
// Packet is zero. An upper layer that does not decode is tolerated: its
// fields and every layer's above it stay zero. PayloadLen counts what
// follows the innermost decoded header, bounded by the IPv4 total
// length when that length is plausible. TCPOptions aliases frame (nil
// when the segment has none); callers that outlive the frame buffer
// must copy it.
func Parse(frame []byte) (Packet, error) {
	var p Packet
	if len(frame) < ethHeaderLen {
		return Packet{}, errEthTruncated
	}
	p.EthDst = MAC(frame[0:6])
	p.EthSrc = MAC(frame[6:12])
	p.EthType = binary.BigEndian.Uint16(frame[12:14])
	rest := frame[ethHeaderLen:]
	if p.EthType == EtherTypeVLAN {
		if len(frame) < ethVLANHeaderLen {
			return Packet{}, errVLANTruncated
		}
		tci := binary.BigEndian.Uint16(frame[14:16])
		p.HasVLAN = true
		p.VLANPCP = uint8(tci >> 13)
		p.VLANID = tci & 0x0fff
		p.EthType = binary.BigEndian.Uint16(frame[16:18])
		rest = frame[ethVLANHeaderLen:]
	}
	switch p.EthType {
	case EtherTypeARP:
		// Ethernet hardware, IPv4 protocol; the MACs are not kept.
		if len(rest) >= arpLen && binary.BigEndian.Uint16(rest[0:2]) == 1 &&
			binary.BigEndian.Uint16(rest[2:4]) == EtherTypeIPv4 {
			p.ARPOp = binary.BigEndian.Uint16(rest[6:8])
			p.NwSrc = IPv4(binary.BigEndian.Uint32(rest[14:18]))
			p.NwDst = IPv4(binary.BigEndian.Uint32(rest[24:28]))
		}
	case EtherTypeIPv4:
		if len(rest) < ipv4HeaderLen || rest[0]>>4 != 4 {
			break
		}
		ihl := int(rest[0]&0x0f) * 4
		if ihl < ipv4HeaderLen || len(rest) < ihl {
			break
		}
		p.NwTOS = rest[1]
		p.NwProto = rest[9]
		p.NwSrc = IPv4(binary.BigEndian.Uint32(rest[12:16]))
		p.NwDst = IPv4(binary.BigEndian.Uint32(rest[16:20]))
		end := int(binary.BigEndian.Uint16(rest[2:4]))
		if end > len(rest) || end < ihl {
			end = len(rest)
		}
		p.parseL4(rest[ihl:end])
	default:
		p.PayloadLen = len(rest)
	}
	return p, nil
}

// parseL4 fills the transport fields of an IPv4 packet from l4, the
// datagram after the IP header. A TCP data offset below the fixed
// header or past the end of l4, or a header l4 cannot hold, leaves them
// zero.
func (p *Packet) parseL4(l4 []byte) {
	switch p.NwProto {
	case ProtoTCP:
		if len(l4) < tcpHeaderLen {
			return
		}
		off := int(l4[12]>>4) * 4
		if off < tcpHeaderLen || len(l4) < off {
			return
		}
		p.TpSrc = binary.BigEndian.Uint16(l4[0:2])
		p.TpDst = binary.BigEndian.Uint16(l4[2:4])
		p.TCPSeq = binary.BigEndian.Uint32(l4[4:8])
		p.TCPAck = binary.BigEndian.Uint32(l4[8:12])
		p.TCPFlags = l4[13]
		if off > tcpHeaderLen {
			p.TCPOptions = l4[tcpHeaderLen:off]
		}
		p.PayloadLen = len(l4) - off
	case ProtoUDP:
		if len(l4) >= udpHeaderLen {
			p.TpSrc = binary.BigEndian.Uint16(l4[0:2])
			p.TpDst = binary.BigEndian.Uint16(l4[2:4])
			p.PayloadLen = len(l4) - udpHeaderLen
		}
	case ProtoICMP:
		if len(l4) >= icmpHeaderLen {
			p.TpSrc = uint16(l4[0])
			p.TpDst = uint16(l4[1])
			p.PayloadLen = len(l4) - icmpHeaderLen
		}
	default:
		p.PayloadLen = len(l4)
	}
}
