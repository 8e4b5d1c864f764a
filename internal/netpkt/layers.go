package netpkt

import (
	"encoding/binary"
	"fmt"
)

// EtherType values recognised by the data plane.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeARP  uint16 = 0x0806
	EtherTypeLLDP uint16 = 0x88cc
	EtherTypeVLAN uint16 = 0x8100
)

// IP protocol numbers recognised by the data plane.
const (
	ProtoICMP uint8 = 1
	ProtoTCP  uint8 = 6
	ProtoUDP  uint8 = 17
)

// ARP opcodes.
const (
	ARPRequest uint16 = 1
	ARPReply   uint16 = 2
)

// TCP flag bits.
const (
	TCPFin uint8 = 1 << 0
	TCPSyn uint8 = 1 << 1
	TCPRst uint8 = 1 << 2
	TCPPsh uint8 = 1 << 3
	TCPAck uint8 = 1 << 4
)

// Ethernet is a IEEE 802.3 frame header (without FCS). An optional 802.1Q
// tag is carried inline.
type Ethernet struct {
	Dst       MAC
	Src       MAC
	EtherType uint16
	HasVLAN   bool
	VLANID    uint16 // 12 bits
	VLANPCP   uint8  // 3 bits
}

const (
	ethHeaderLen     = 14
	ethVLANHeaderLen = 18
)

// Encode appends the wire form of e to b.
func (e *Ethernet) Encode(b []byte) []byte {
	b = append(b, e.Dst[:]...)
	b = append(b, e.Src[:]...)
	if e.HasVLAN {
		b = binary.BigEndian.AppendUint16(b, EtherTypeVLAN)
		tci := uint16(e.VLANPCP&0x7)<<13 | e.VLANID&0x0fff
		b = binary.BigEndian.AppendUint16(b, tci)
	}
	return binary.BigEndian.AppendUint16(b, e.EtherType)
}

// ARP is an IPv4-over-Ethernet ARP message.
type ARP struct {
	Opcode    uint16
	SenderMAC MAC
	SenderIP  IPv4
	TargetMAC MAC
	TargetIP  IPv4
}

const arpLen = 28

// Encode appends the wire form of a to b.
func (a *ARP) Encode(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, 1) // hardware: ethernet
	b = binary.BigEndian.AppendUint16(b, EtherTypeIPv4)
	b = append(b, 6, 4) // hlen, plen
	b = binary.BigEndian.AppendUint16(b, a.Opcode)
	b = append(b, a.SenderMAC[:]...)
	b = binary.BigEndian.AppendUint32(b, uint32(a.SenderIP))
	b = append(b, a.TargetMAC[:]...)
	b = binary.BigEndian.AppendUint32(b, uint32(a.TargetIP))
	return b
}

// IPv4Header is an IPv4 header without options. Encode writes
// identification 0 and TTL 64.
type IPv4Header struct {
	TOS      uint8
	Protocol uint8
	Src      IPv4
	Dst      IPv4
}

const ipv4HeaderLen = 20

// Encode appends the wire form of h (with checksum) to b, its total
// length counting payloadLen bytes after the header.
func (h *IPv4Header) Encode(b []byte, payloadLen int) []byte {
	start := len(b)
	b = append(b, 0x45, h.TOS)
	b = binary.BigEndian.AppendUint16(b, uint16(ipv4HeaderLen+payloadLen))
	b = binary.BigEndian.AppendUint16(b, 0) // identification
	b = binary.BigEndian.AppendUint16(b, 0) // flags+fragment
	b = append(b, 64, h.Protocol)           // TTL, protocol
	b = binary.BigEndian.AppendUint16(b, 0) // checksum placeholder
	b = binary.BigEndian.AppendUint32(b, uint32(h.Src))
	b = binary.BigEndian.AppendUint32(b, uint32(h.Dst))
	cs := Checksum(b[start:])
	binary.BigEndian.PutUint16(b[start+10:start+12], cs)
	return b
}

// TCPHeader is a TCP header. Options holds the raw option bytes between
// the fixed header and the payload; Encode pads them with zeros to the
// 4-byte data-offset granularity and clamps them to MaxTCPOptionsLen.
type TCPHeader struct {
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   uint8
	Options []byte
}

const tcpHeaderLen = 20

// MaxTCPOptionsLen is the largest option block a TCP data offset can
// express: (15-5)*4 bytes.
const MaxTCPOptionsLen = 40

// tcpOptionsWireLen returns the encoded (4-byte padded, clamped) length
// of an option block of n raw bytes.
func tcpOptionsWireLen(n int) int {
	if n > MaxTCPOptionsLen {
		n = MaxTCPOptionsLen
	}
	return (n + 3) &^ 3
}

// Encode appends the wire form of t (window 65535, checksum left zero —
// the simulated data plane does not verify L4 checksums) to b.
func (t *TCPHeader) Encode(b []byte) []byte {
	opts := t.Options
	if len(opts) > MaxTCPOptionsLen {
		opts = opts[:MaxTCPOptionsLen]
	}
	off := tcpHeaderLen + tcpOptionsWireLen(len(opts))
	b = binary.BigEndian.AppendUint16(b, t.SrcPort)
	b = binary.BigEndian.AppendUint16(b, t.DstPort)
	b = binary.BigEndian.AppendUint32(b, t.Seq)
	b = binary.BigEndian.AppendUint32(b, t.Ack)
	b = append(b, uint8(off/4)<<4, t.Flags)
	b = binary.BigEndian.AppendUint16(b, 65535) // window
	b = binary.BigEndian.AppendUint16(b, 0)     // checksum
	b = binary.BigEndian.AppendUint16(b, 0)     // urgent
	b = append(b, opts...)
	return appendZeros(b, off-tcpHeaderLen-len(opts))
}

// ValidateTCPOptions walks a TCP option block as a kind/length TLV list
// and reports the first structural defect: a length-bearing option that
// claims fewer than 2 bytes or overruns the block. EOL (kind 0) ends the
// walk; NOP (kind 1) has no length octet.
func ValidateTCPOptions(opts []byte) error {
	for i := 0; i < len(opts); {
		switch opts[i] {
		case 0: // EOL — remainder is padding
			return nil
		case 1: // NOP
			i++
		default:
			if i+1 >= len(opts) {
				return fmt.Errorf("tcp option kind %d at %d: %w", opts[i], i, ErrTruncated)
			}
			l := int(opts[i+1])
			if l < 2 || i+l > len(opts) {
				return fmt.Errorf("tcp option kind %d at %d: bad length %d", opts[i], i, l)
			}
			i += l
		}
	}
	return nil
}

// UDPHeader is a UDP header.
type UDPHeader struct {
	SrcPort uint16
	DstPort uint16
}

const udpHeaderLen = 8

// Encode appends the wire form of u to b, its length counting
// payloadLen bytes after the header.
func (u *UDPHeader) Encode(b []byte, payloadLen int) []byte {
	b = binary.BigEndian.AppendUint16(b, u.SrcPort)
	b = binary.BigEndian.AppendUint16(b, u.DstPort)
	b = binary.BigEndian.AppendUint16(b, uint16(udpHeaderLen+payloadLen))
	return binary.BigEndian.AppendUint16(b, 0) // checksum optional in IPv4
}

// ICMPHeader is an ICMP echo-style header; Encode writes identifier and
// sequence number 0.
type ICMPHeader struct {
	Type uint8
	Code uint8
}

const icmpHeaderLen = 8

// ICMP types used by the generators.
const (
	ICMPEchoReply   uint8 = 0
	ICMPEchoRequest uint8 = 8
)

// Encode appends the wire form of i (with checksum over header+payload) to b.
func (i *ICMPHeader) Encode(b, payload []byte) []byte {
	start := len(b)
	b = append(b, i.Type, i.Code, 0, 0, 0, 0, 0, 0) // checksum, identifier, sequence
	b = append(b, payload...)
	cs := Checksum(b[start:])
	binary.BigEndian.PutUint16(b[start+2:start+4], cs)
	return b
}

// Checksum computes the RFC 1071 Internet checksum of b.
func Checksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}
