// Package appir defines the packet-policy intermediate representation the
// controller applications are written in, plus its concrete interpreter
// and versioned global state store.
//
// The paper derives proactive flow rules by reasoning about the runtime
// logic of controller applications: offline symbolic execution of each
// packet_in handler (with the input *and* the state-sensitive global
// variables symbolized) followed by runtime substitution of the globals'
// live values. Doing that against arbitrary compiled Go is not tractable,
// so the applications are expressed in this small IR: branches over
// packet-header fields, lookups/learns on named global tables, and the
// terminal decisions an OpenFlow app can take (install a flow rule, emit
// a packet_out, drop). One program is both executed per packet_in by the
// controller and explored symbolically by internal/symexec — there is no
// model/implementation gap.
package appir

import (
	"cmp"
	"fmt"

	"floodguard/internal/netpkt"
)

// Kind types a Value.
type Kind uint8

// Value kinds.
const (
	KindNone Kind = iota
	KindMAC
	KindIP
	KindU16
	KindU8
	KindBool
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindMAC:
		return "mac"
	case KindIP:
		return "ip"
	case KindU16:
		return "u16"
	case KindU8:
		return "u8"
	case KindBool:
		return "bool"
	default:
		return "none"
	}
}

// Value is a typed scalar: a MAC, IPv4 address, 16-bit integer (ports,
// ethertypes, switch ports), 8-bit integer, or boolean.
type Value struct {
	Kind Kind
	Bits uint64
}

// Compare orders values by kind, then by bits (-1, 0, +1) — the order
// TableEntries enumerates keys in, hence the order of derived rules.
func (v Value) Compare(o Value) int {
	if v.Kind != o.Kind {
		return cmp.Compare(v.Kind, o.Kind)
	}
	return cmp.Compare(v.Bits, o.Bits)
}

// MACValue wraps a MAC address.
func MACValue(m netpkt.MAC) Value { return Value{Kind: KindMAC, Bits: m.Uint64()} }

// IPValue wraps an IPv4 address.
func IPValue(ip netpkt.IPv4) Value { return Value{Kind: KindIP, Bits: uint64(ip)} }

// U16Value wraps a 16-bit integer.
func U16Value(v uint16) Value { return Value{Kind: KindU16, Bits: uint64(v)} }

// U8Value wraps an 8-bit integer.
func U8Value(v uint8) Value { return Value{Kind: KindU8, Bits: uint64(v)} }

// BoolValue wraps a boolean.
func BoolValue(v bool) Value {
	b := uint64(0)
	if v {
		b = 1
	}
	return Value{Kind: KindBool, Bits: b}
}

// MAC unwraps a KindMAC value.
func (v Value) MAC() netpkt.MAC { return netpkt.MACFromUint64(v.Bits) }

// IP unwraps a KindIP value.
func (v Value) IP() netpkt.IPv4 { return netpkt.IPv4(v.Bits) }

// U16 unwraps a 16-bit value.
func (v Value) U16() uint16 { return uint16(v.Bits) }

// U8 unwraps an 8-bit value.
func (v Value) U8() uint8 { return uint8(v.Bits) }

// Bool unwraps a boolean value.
func (v Value) Bool() bool { return v.Bits != 0 }

// IsZero reports whether v is the zero Value (no kind).
func (v Value) IsZero() bool { return v.Kind == KindNone }

// String renders the value according to its kind.
func (v Value) String() string {
	switch v.Kind {
	case KindMAC:
		return v.MAC().String()
	case KindIP:
		return v.IP().String()
	case KindBool:
		return fmt.Sprintf("%t", v.Bool())
	case KindNone:
		return "<none>"
	default:
		return fmt.Sprintf("%d", v.Bits)
	}
}

// Field identifies one header field of the packet_in event.
type Field uint8

// Packet_in event fields.
const (
	FInPort Field = iota + 1
	FEthSrc
	FEthDst
	FEthType
	FARPOp
	FNwSrc
	FNwDst
	FNwProto
	FNwTOS
	FTpSrc
	FTpDst
)

// Fields lists every field, in match-structure order.
var Fields = []Field{
	FInPort, FEthSrc, FEthDst, FEthType, FARPOp,
	FNwSrc, FNwDst, FNwProto, FNwTOS, FTpSrc, FTpDst,
}

// Kind returns the value kind the field carries.
func (f Field) Kind() Kind {
	switch f {
	case FEthSrc, FEthDst:
		return KindMAC
	case FNwSrc, FNwDst:
		return KindIP
	case FInPort, FEthType, FARPOp, FTpSrc, FTpDst:
		return KindU16
	case FNwProto, FNwTOS:
		return KindU8
	default:
		return KindNone
	}
}

// String names the field in OpenFlow style.
func (f Field) String() string {
	switch f {
	case FInPort:
		return "in_port"
	case FEthSrc:
		return "dl_src"
	case FEthDst:
		return "dl_dst"
	case FEthType:
		return "dl_type"
	case FARPOp:
		return "arp_op"
	case FNwSrc:
		return "nw_src"
	case FNwDst:
		return "nw_dst"
	case FNwProto:
		return "nw_proto"
	case FNwTOS:
		return "nw_tos"
	case FTpSrc:
		return "tp_src"
	case FTpDst:
		return "tp_dst"
	default:
		return fmt.Sprintf("field(%d)", uint8(f))
	}
}

// FieldOf extracts field f from a packet received on inPort.
func FieldOf(p *netpkt.Packet, inPort uint16, f Field) Value {
	switch f {
	case FInPort:
		return U16Value(inPort)
	case FEthSrc:
		return MACValue(p.EthSrc)
	case FEthDst:
		return MACValue(p.EthDst)
	case FEthType:
		return U16Value(p.EthType)
	case FARPOp:
		return U16Value(p.ARPOp)
	case FNwSrc:
		return IPValue(p.NwSrc)
	case FNwDst:
		return IPValue(p.NwDst)
	case FNwProto:
		return U8Value(p.NwProto)
	case FNwTOS:
		return U8Value(p.NwTOS)
	case FTpSrc:
		return U16Value(p.TpSrc)
	case FTpDst:
		return U16Value(p.TpDst)
	default:
		return Value{}
	}
}
