package netpkt

import (
	"encoding/binary"
	"fmt"
)

// The layered decoder Parse replaced, kept as the oracle Parse is held
// to (FuzzParse): one decoder per layer, each copying its header into a
// struct of its own, and a Parse that copies those structs' fields into
// the flattened view. The header fields no encoder reads any more (IP
// identification and TTL, TCP window, UDP length, ICMP identifier and
// sequence) are no longer decoded; the flattened view never held them.

func decodeEthernet(b []byte) (Ethernet, []byte, error) {
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

func decodeARP(b []byte) (ARP, error) {
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

func decodeIPv4(b []byte) (IPv4Header, []byte, error) {
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
	h.Protocol = b[9]
	h.Src = IPv4(binary.BigEndian.Uint32(b[12:16]))
	h.Dst = IPv4(binary.BigEndian.Uint32(b[16:20]))
	end := int(binary.BigEndian.Uint16(b[2:4]))
	if end > len(b) || end < ihl {
		end = len(b)
	}
	return h, b[ihl:end], nil
}

func decodeTCP(b []byte) (TCPHeader, []byte, error) {
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
	if off > tcpHeaderLen {
		t.Options = b[tcpHeaderLen:off]
	}
	return t, b[off:], nil
}

func decodeUDP(b []byte) (UDPHeader, []byte, error) {
	var u UDPHeader
	if len(b) < udpHeaderLen {
		return u, nil, fmt.Errorf("udp: %w", ErrTruncated)
	}
	u.SrcPort = binary.BigEndian.Uint16(b[0:2])
	u.DstPort = binary.BigEndian.Uint16(b[2:4])
	return u, b[udpHeaderLen:], nil
}

func decodeICMP(b []byte) (ICMPHeader, []byte, error) {
	var i ICMPHeader
	if len(b) < icmpHeaderLen {
		return i, nil, fmt.Errorf("icmp: %w", ErrTruncated)
	}
	i.Type = b[0]
	i.Code = b[1]
	return i, b[icmpHeaderLen:], nil
}

func layeredParse(frame []byte) (Packet, error) {
	var p Packet
	eth, rest, err := decodeEthernet(frame)
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
		arp, err := decodeARP(rest)
		if err != nil {
			return p, nil //nolint:nilerr // tolerate malformed upper layer
		}
		p.ARPOp = arp.Opcode
		p.NwSrc = arp.SenderIP
		p.NwDst = arp.TargetIP
	case EtherTypeIPv4:
		h, l4, err := decodeIPv4(rest)
		if err != nil {
			return p, nil //nolint:nilerr
		}
		p.NwSrc = h.Src
		p.NwDst = h.Dst
		p.NwProto = h.Protocol
		p.NwTOS = h.TOS
		switch h.Protocol {
		case ProtoTCP:
			t, payload, err := decodeTCP(l4)
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
			u, payload, err := decodeUDP(l4)
			if err == nil {
				p.TpSrc = u.SrcPort
				p.TpDst = u.DstPort
				p.PayloadLen = len(payload)
			}
		case ProtoICMP:
			ic, payload, err := decodeICMP(l4)
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
