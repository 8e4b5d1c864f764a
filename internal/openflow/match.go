package openflow

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"strings"

	"floodguard/internal/netpkt"
)

// Wildcard bits of the OpenFlow 1.0 match (ofp_flow_wildcards).
const (
	WildInPort  uint32 = 1 << 0
	WildVLAN    uint32 = 1 << 1
	WildDlSrc   uint32 = 1 << 2
	WildDlDst   uint32 = 1 << 3
	WildDlType  uint32 = 1 << 4
	WildNwProto uint32 = 1 << 5
	WildTpSrc   uint32 = 1 << 6
	WildTpDst   uint32 = 1 << 7
	nwSrcShift         = 8
	nwDstShift         = 14
	nwMaskBits  uint32 = 0x3f
	WildVLANPCP uint32 = 1 << 20
	WildNwTOS   uint32 = 1 << 21
	// WildAll has every field wildcarded: the migration rule's base.
	WildAll uint32 = (WildNwTOS << 1) - 1
)

// Special port numbers (ofp_port).
const (
	PortMax        uint16 = 0xff00
	PortInPort     uint16 = 0xfff8
	PortTable      uint16 = 0xfff9
	PortNormal     uint16 = 0xfffa
	PortFlood      uint16 = 0xfffb
	PortAll        uint16 = 0xfffc
	PortController uint16 = 0xfffd
	PortLocal      uint16 = 0xfffe
	PortNone       uint16 = 0xffff
)

// NoBuffer is the buffer_id meaning "packet not buffered; full body
// attached" — the amplification vector when the switch buffer is full.
const NoBuffer uint32 = 0xffffffff

// Match is the OpenFlow 1.0 12-tuple match structure.
type Match struct {
	Wildcards uint32
	InPort    uint16
	DlSrc     netpkt.MAC
	DlDst     netpkt.MAC
	DlVLAN    uint16
	DlVLANPCP uint8
	DlType    uint16
	NwTOS     uint8
	NwProto   uint8
	NwSrc     netpkt.IPv4
	NwDst     netpkt.IPv4
	TpSrc     uint16
	TpDst     uint16
}

// MatchAll returns the fully wildcarded match.
func MatchAll() Match { return Match{Wildcards: WildAll} }

// NwSrcMaskLen returns how many prefix bits of NwSrc are significant
// (32 = exact, 0 = fully wildcarded).
func (m *Match) NwSrcMaskLen() int { return maskLen(m.Wildcards >> nwSrcShift) }

// NwDstMaskLen returns how many prefix bits of NwDst are significant.
func (m *Match) NwDstMaskLen() int { return maskLen(m.Wildcards >> nwDstShift) }

func maskLen(field uint32) int {
	n := int(field & nwMaskBits)
	if n >= 32 {
		return 0
	}
	return 32 - n
}

// SetNwSrcMaskLen sets the significant prefix length for NwSrc.
func (m *Match) SetNwSrcMaskLen(bits int) { m.setMask(nwSrcShift, bits) }

// SetNwDstMaskLen sets the significant prefix length for NwDst.
func (m *Match) SetNwDstMaskLen(bits int) { m.setMask(nwDstShift, bits) }

func (m *Match) setMask(shift int, bits int) {
	if bits < 0 {
		bits = 0
	}
	if bits > 32 {
		bits = 32
	}
	m.Wildcards &^= nwMaskBits << shift
	m.Wildcards |= uint32(32-bits) << shift
}

// Matches reports whether a packet arriving on inPort satisfies m.
func (m *Match) Matches(p *netpkt.Packet, inPort uint16) bool {
	if m.Wildcards&WildInPort == 0 && m.InPort != inPort {
		return false
	}
	if m.Wildcards&WildDlSrc == 0 && m.DlSrc != p.EthSrc {
		return false
	}
	if m.Wildcards&WildDlDst == 0 && m.DlDst != p.EthDst {
		return false
	}
	if m.Wildcards&WildVLAN == 0 {
		if !p.HasVLAN || m.DlVLAN != p.VLANID {
			return false
		}
	}
	if m.Wildcards&WildVLANPCP == 0 && (!p.HasVLAN || m.DlVLANPCP != p.VLANPCP) {
		return false
	}
	if m.Wildcards&WildDlType == 0 {
		if m.DlType != p.EthType {
			return false
		}
	} else {
		// All L3+ fields are only meaningful with a concrete DlType;
		// OpenFlow 1.0 treats them as wildcarded otherwise.
		return true
	}
	if p.EthType != netpkt.EtherTypeIPv4 && p.EthType != netpkt.EtherTypeARP {
		return true
	}
	if n := m.NwSrcMaskLen(); n > 0 && !p.NwSrc.InPrefix(m.NwSrc, n) {
		return false
	}
	if n := m.NwDstMaskLen(); n > 0 && !p.NwDst.InPrefix(m.NwDst, n) {
		return false
	}
	if p.EthType == netpkt.EtherTypeARP {
		// For ARP, nw_proto carries the opcode's low byte in OF 1.0.
		if m.Wildcards&WildNwProto == 0 && m.NwProto != uint8(p.ARPOp) {
			return false
		}
		return true
	}
	if m.Wildcards&WildNwTOS == 0 && m.NwTOS != p.NwTOS {
		return false
	}
	if m.Wildcards&WildNwProto == 0 && m.NwProto != p.NwProto {
		return false
	}
	if p.NwProto != netpkt.ProtoTCP && p.NwProto != netpkt.ProtoUDP && p.NwProto != netpkt.ProtoICMP {
		return true
	}
	if m.Wildcards&WildTpSrc == 0 && m.TpSrc != p.TpSrc {
		return false
	}
	if m.Wildcards&WildTpDst == 0 && m.TpDst != p.TpDst {
		return false
	}
	return true
}

// ExactFrom builds the exact (no wildcards beyond the IP masks) match for
// a packet received on inPort — what a reactive app installs per flow.
func ExactFrom(p *netpkt.Packet, inPort uint16) Match {
	m := Match{
		InPort: inPort,
		DlSrc:  p.EthSrc,
		DlDst:  p.EthDst,
		DlType: p.EthType,
	}
	if p.HasVLAN {
		m.DlVLAN = p.VLANID
		m.DlVLANPCP = p.VLANPCP
	} else {
		m.Wildcards |= WildVLAN | WildVLANPCP
	}
	switch p.EthType {
	case netpkt.EtherTypeIPv4:
		m.NwSrc = p.NwSrc
		m.NwDst = p.NwDst
		m.SetNwSrcMaskLen(32)
		m.SetNwDstMaskLen(32)
		m.NwProto = p.NwProto
		m.NwTOS = p.NwTOS
		switch p.NwProto {
		case netpkt.ProtoTCP, netpkt.ProtoUDP, netpkt.ProtoICMP:
			m.TpSrc = p.TpSrc
			m.TpDst = p.TpDst
		default:
			m.Wildcards |= WildTpSrc | WildTpDst
		}
	case netpkt.EtherTypeARP:
		m.NwSrc = p.NwSrc
		m.NwDst = p.NwDst
		m.SetNwSrcMaskLen(32)
		m.SetNwDstMaskLen(32)
		m.NwProto = uint8(p.ARPOp)
		m.Wildcards |= WildNwTOS | WildTpSrc | WildTpDst
	default:
		m.Wildcards |= WildNwProto | WildNwTOS | WildTpSrc | WildTpDst
		m.SetNwSrcMaskLen(0)
		m.SetNwDstMaskLen(0)
	}
	return m
}

// Normalized zeroes every wildcarded field and the host bits of every
// prefix, so logically equal matches are equal as values: the result is
// a comparable identity (a map key) that costs no formatting.
func (m *Match) Normalized() Match {
	n := *m
	if n.Wildcards&WildInPort != 0 {
		n.InPort = 0
	}
	if n.Wildcards&WildDlSrc != 0 {
		n.DlSrc = netpkt.MAC{}
	}
	if n.Wildcards&WildDlDst != 0 {
		n.DlDst = netpkt.MAC{}
	}
	if n.Wildcards&WildVLAN != 0 {
		n.DlVLAN = 0
	}
	if n.Wildcards&WildVLANPCP != 0 {
		n.DlVLANPCP = 0
	}
	if n.Wildcards&WildDlType != 0 {
		n.DlType = 0
	}
	if n.Wildcards&WildNwProto != 0 {
		n.NwProto = 0
	}
	if n.Wildcards&WildNwTOS != 0 {
		n.NwTOS = 0
	}
	if n.Wildcards&WildTpSrc != 0 {
		n.TpSrc = 0
	}
	if n.Wildcards&WildTpDst != 0 {
		n.TpDst = 0
	}
	if l := m.NwSrcMaskLen(); l < 32 {
		if l == 0 {
			n.NwSrc = 0
		} else {
			n.NwSrc &= netpkt.IPv4(^uint32(0) << (32 - l))
		}
	}
	if l := m.NwDstMaskLen(); l < 32 {
		if l == 0 {
			n.NwDst = 0
		} else {
			n.NwDst &= netpkt.IPv4(^uint32(0) << (32 - l))
		}
	}
	return n
}

// Equal reports whether two matches are logically identical. It
// compares the normalized structs directly — no string building — so
// strict flow_mod application stays allocation-free on the shard's
// flow_mod path.
func (m *Match) Equal(o *Match) bool { return m.Normalized() == o.Normalized() }

// Compare orders matches field by field in declaration order (-1, 0, +1).
// On normalized matches it is a total order consistent with ==, which
// is what makes a sorted rule dispatch reproducible.
func (m *Match) Compare(o *Match) int {
	return cmp.Or(
		cmp.Compare(m.Wildcards, o.Wildcards),
		cmp.Compare(m.InPort, o.InPort),
		bytes.Compare(m.DlSrc[:], o.DlSrc[:]),
		bytes.Compare(m.DlDst[:], o.DlDst[:]),
		cmp.Compare(m.DlVLAN, o.DlVLAN),
		cmp.Compare(m.DlVLANPCP, o.DlVLANPCP),
		cmp.Compare(m.DlType, o.DlType),
		cmp.Compare(m.NwTOS, o.NwTOS),
		cmp.Compare(m.NwProto, o.NwProto),
		cmp.Compare(m.NwSrc, o.NwSrc),
		cmp.Compare(m.NwDst, o.NwDst),
		cmp.Compare(m.TpSrc, o.TpSrc),
		cmp.Compare(m.TpDst, o.TpDst),
	)
}

// String renders only the concrete (non-wildcarded) fields.
func (m *Match) String() string {
	var parts []string
	add := func(bit uint32, s string) {
		if m.Wildcards&bit == 0 {
			parts = append(parts, s)
		}
	}
	add(WildInPort, fmt.Sprintf("in_port=%d", m.InPort))
	add(WildDlSrc, fmt.Sprintf("dl_src=%v", m.DlSrc))
	add(WildDlDst, fmt.Sprintf("dl_dst=%v", m.DlDst))
	add(WildVLAN, fmt.Sprintf("dl_vlan=%d", m.DlVLAN))
	add(WildDlType, fmt.Sprintf("dl_type=%#04x", m.DlType))
	add(WildNwTOS, fmt.Sprintf("nw_tos=%d", m.NwTOS))
	add(WildNwProto, fmt.Sprintf("nw_proto=%d", m.NwProto))
	if l := m.NwSrcMaskLen(); l > 0 {
		parts = append(parts, fmt.Sprintf("nw_src=%v/%d", m.NwSrc, l))
	}
	if l := m.NwDstMaskLen(); l > 0 {
		parts = append(parts, fmt.Sprintf("nw_dst=%v/%d", m.NwDst, l))
	}
	add(WildTpSrc, fmt.Sprintf("tp_src=%d", m.TpSrc))
	add(WildTpDst, fmt.Sprintf("tp_dst=%d", m.TpDst))
	if len(parts) == 0 {
		return "any"
	}
	return strings.Join(parts, ",")
}

const matchLen = 40

func (m *Match) encode(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, m.Wildcards)
	b = binary.BigEndian.AppendUint16(b, m.InPort)
	b = append(b, m.DlSrc[:]...)
	b = append(b, m.DlDst[:]...)
	b = binary.BigEndian.AppendUint16(b, m.DlVLAN)
	b = append(b, m.DlVLANPCP, 0)
	b = binary.BigEndian.AppendUint16(b, m.DlType)
	b = append(b, m.NwTOS, m.NwProto, 0, 0)
	b = binary.BigEndian.AppendUint32(b, uint32(m.NwSrc))
	b = binary.BigEndian.AppendUint32(b, uint32(m.NwDst))
	b = binary.BigEndian.AppendUint16(b, m.TpSrc)
	return binary.BigEndian.AppendUint16(b, m.TpDst)
}

func decodeMatch(b []byte) (Match, error) {
	var m Match
	if len(b) < matchLen {
		return m, fmt.Errorf("openflow: match: short buffer (%d)", len(b))
	}
	m.Wildcards = binary.BigEndian.Uint32(b[0:4])
	m.InPort = binary.BigEndian.Uint16(b[4:6])
	copy(m.DlSrc[:], b[6:12])
	copy(m.DlDst[:], b[12:18])
	m.DlVLAN = binary.BigEndian.Uint16(b[18:20])
	m.DlVLANPCP = b[20]
	m.DlType = binary.BigEndian.Uint16(b[22:24])
	m.NwTOS = b[24]
	m.NwProto = b[25]
	m.NwSrc = netpkt.IPv4(binary.BigEndian.Uint32(b[28:32]))
	m.NwDst = netpkt.IPv4(binary.BigEndian.Uint32(b[32:36]))
	m.TpSrc = binary.BigEndian.Uint16(b[36:38])
	m.TpDst = binary.BigEndian.Uint16(b[38:40])
	return m, nil
}
