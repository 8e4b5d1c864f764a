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

// DecodeEthernet parses an Ethernet header and returns the payload.
func DecodeEthernet(b []byte) (Ethernet, []byte, error) {
	var e Ethernet
	if len(b) < ethHeaderLen {
		return e, nil, fmt.Errorf("ethernet: %w", ErrTruncated)
	}
	copy(e.Dst[:], b[0:6])
	copy(e.Src[:], b[6:12])
	et := binary.BigEndian.Uint16(b[12:14])
	rest := b[14:]
	if et == EtherTypeVLAN {
		if len(b) < ethVLANHeaderLen {
			return e, nil, fmt.Errorf("ethernet 802.1q: %w", ErrTruncated)
		}
		tci := binary.BigEndian.Uint16(b[14:16])
		e.HasVLAN = true
		e.VLANPCP = uint8(tci >> 13)
		e.VLANID = tci & 0x0fff
		et = binary.BigEndian.Uint16(b[16:18])
		rest = b[18:]
	}
	e.EtherType = et
	return e, rest, nil
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

// DecodeARP parses an ARP message.
func DecodeARP(b []byte) (ARP, error) {
	var a ARP
	if len(b) < arpLen {
		return a, fmt.Errorf("arp: %w", ErrTruncated)
	}
	if hw := binary.BigEndian.Uint16(b[0:2]); hw != 1 {
		return a, fmt.Errorf("arp: unsupported hardware type %d", hw)
	}
	if pt := binary.BigEndian.Uint16(b[2:4]); pt != EtherTypeIPv4 {
		return a, fmt.Errorf("arp: unsupported protocol type %#04x", pt)
	}
	a.Opcode = binary.BigEndian.Uint16(b[6:8])
	copy(a.SenderMAC[:], b[8:14])
	a.SenderIP = IPv4(binary.BigEndian.Uint32(b[14:18]))
	copy(a.TargetMAC[:], b[18:24])
	a.TargetIP = IPv4(binary.BigEndian.Uint32(b[24:28]))
	return a, nil
}

// IPv4Header is an IPv4 header without options.
type IPv4Header struct {
	TOS      uint8
	TotalLen uint16
	ID       uint16
	TTL      uint8
	Protocol uint8
	Src      IPv4
	Dst      IPv4
}

const ipv4HeaderLen = 20

// Encode appends the wire form of h (with checksum) to b. TotalLen is
// computed from payloadLen when zero.
func (h *IPv4Header) Encode(b []byte, payloadLen int) []byte {
	total := h.TotalLen
	if total == 0 {
		total = uint16(ipv4HeaderLen + payloadLen)
	}
	start := len(b)
	b = append(b, 0x45, h.TOS)
	b = binary.BigEndian.AppendUint16(b, total)
	b = binary.BigEndian.AppendUint16(b, h.ID)
	b = binary.BigEndian.AppendUint16(b, 0) // flags+fragment
	ttl := h.TTL
	if ttl == 0 {
		ttl = 64
	}
	b = append(b, ttl, h.Protocol)
	b = binary.BigEndian.AppendUint16(b, 0) // checksum placeholder
	b = binary.BigEndian.AppendUint32(b, uint32(h.Src))
	b = binary.BigEndian.AppendUint32(b, uint32(h.Dst))
	cs := Checksum(b[start:])
	binary.BigEndian.PutUint16(b[start+10:start+12], cs)
	return b
}

// DecodeIPv4 parses an IPv4 header and returns the payload. Options are
// skipped; fragments are not reassembled.
func DecodeIPv4(b []byte) (IPv4Header, []byte, error) {
	var h IPv4Header
	if len(b) < ipv4HeaderLen {
		return h, nil, fmt.Errorf("ipv4: %w", ErrTruncated)
	}
	if ver := b[0] >> 4; ver != 4 {
		return h, nil, fmt.Errorf("ipv4: bad version %d", ver)
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < ipv4HeaderLen || len(b) < ihl {
		return h, nil, fmt.Errorf("ipv4: bad IHL %d: %w", ihl, ErrTruncated)
	}
	h.TOS = b[1]
	h.TotalLen = binary.BigEndian.Uint16(b[2:4])
	h.ID = binary.BigEndian.Uint16(b[4:6])
	h.TTL = b[8]
	h.Protocol = b[9]
	h.Src = IPv4(binary.BigEndian.Uint32(b[12:16]))
	h.Dst = IPv4(binary.BigEndian.Uint32(b[16:20]))
	end := int(h.TotalLen)
	if end > len(b) || end < ihl {
		end = len(b)
	}
	return h, b[ihl:end], nil
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
	Window  uint16
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

// Encode appends the wire form of t (checksum left zero — the simulated
// data plane does not verify L4 checksums) to b.
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
	win := t.Window
	if win == 0 {
		win = 65535
	}
	b = binary.BigEndian.AppendUint16(b, win)
	b = binary.BigEndian.AppendUint16(b, 0) // checksum
	b = binary.BigEndian.AppendUint16(b, 0) // urgent
	b = append(b, opts...)
	return appendZeros(b, off-tcpHeaderLen-len(opts))
}

// DecodeTCP parses a TCP header and returns the payload. t.Options
// aliases b's option region (empty stays nil); callers that outlive the
// frame buffer must copy it.
func DecodeTCP(b []byte) (TCPHeader, []byte, error) {
	var t TCPHeader
	if len(b) < tcpHeaderLen {
		return t, nil, fmt.Errorf("tcp: %w", ErrTruncated)
	}
	t.SrcPort = binary.BigEndian.Uint16(b[0:2])
	t.DstPort = binary.BigEndian.Uint16(b[2:4])
	t.Seq = binary.BigEndian.Uint32(b[4:8])
	t.Ack = binary.BigEndian.Uint32(b[8:12])
	off := int(b[12]>>4) * 4
	if off < tcpHeaderLen || len(b) < off {
		return t, nil, fmt.Errorf("tcp: bad data offset %d: %w", off, ErrTruncated)
	}
	t.Flags = b[13]
	t.Window = binary.BigEndian.Uint16(b[14:16])
	if off > tcpHeaderLen {
		t.Options = b[tcpHeaderLen:off]
	}
	return t, b[off:], nil
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
	Length  uint16
}

const udpHeaderLen = 8

// Encode appends the wire form of u to b. Length is computed from
// payloadLen when zero.
func (u *UDPHeader) Encode(b []byte, payloadLen int) []byte {
	length := u.Length
	if length == 0 {
		length = uint16(udpHeaderLen + payloadLen)
	}
	b = binary.BigEndian.AppendUint16(b, u.SrcPort)
	b = binary.BigEndian.AppendUint16(b, u.DstPort)
	b = binary.BigEndian.AppendUint16(b, length)
	return binary.BigEndian.AppendUint16(b, 0) // checksum optional in IPv4
}

// DecodeUDP parses a UDP header and returns the payload.
func DecodeUDP(b []byte) (UDPHeader, []byte, error) {
	var u UDPHeader
	if len(b) < udpHeaderLen {
		return u, nil, fmt.Errorf("udp: %w", ErrTruncated)
	}
	u.SrcPort = binary.BigEndian.Uint16(b[0:2])
	u.DstPort = binary.BigEndian.Uint16(b[2:4])
	u.Length = binary.BigEndian.Uint16(b[4:6])
	return u, b[udpHeaderLen:], nil
}

// ICMPHeader is an ICMP echo-style header.
type ICMPHeader struct {
	Type uint8
	Code uint8
	ID   uint16
	Seq  uint16
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
	b = append(b, i.Type, i.Code, 0, 0)
	b = binary.BigEndian.AppendUint16(b, i.ID)
	b = binary.BigEndian.AppendUint16(b, i.Seq)
	b = append(b, payload...)
	cs := Checksum(b[start:])
	binary.BigEndian.PutUint16(b[start+2:start+4], cs)
	return b
}

// DecodeICMP parses an ICMP header and returns the payload.
func DecodeICMP(b []byte) (ICMPHeader, []byte, error) {
	var i ICMPHeader
	if len(b) < icmpHeaderLen {
		return i, nil, fmt.Errorf("icmp: %w", ErrTruncated)
	}
	i.Type = b[0]
	i.Code = b[1]
	i.ID = binary.BigEndian.Uint16(b[4:6])
	i.Seq = binary.BigEndian.Uint16(b[6:8])
	return i, b[icmpHeaderLen:], nil
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
