package netpkt

// FlowKey identifies a microflow: one spoofed header tuple from the
// attacker constitutes one distinct key, hence one table miss.
type FlowKey struct {
	EthSrc  MAC
	EthDst  MAC
	EthType uint16
	NwSrc   IPv4
	NwDst   IPv4
	NwProto uint8
	TpSrc   uint16
	TpDst   uint16
}

// Key returns the microflow identity of p.
func (p *Packet) Key() FlowKey {
	return FlowKey{
		EthSrc:  p.EthSrc,
		EthDst:  p.EthDst,
		EthType: p.EthType,
		NwSrc:   p.NwSrc,
		NwDst:   p.NwDst,
		NwProto: p.NwProto,
		TpSrc:   p.TpSrc,
		TpDst:   p.TpDst,
	}
}

// IsBroadcast reports whether m is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == Broadcast }

// IsMulticast reports whether the group bit of m is set.
func (m MAC) IsMulticast() bool { return m[0]&0x01 != 0 }

// IsZero reports whether m is the all-zero address.
func (m MAC) IsZero() bool { return m == MAC{} }
