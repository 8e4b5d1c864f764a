package openflow

import (
	"encoding/binary"
	"fmt"
	"strings"

	"floodguard/internal/netpkt"
)

// Action type codes (ofp_action_type).
const (
	actOutput   uint16 = 0
	actSetNwDst uint16 = 7
	actSetNwTOS uint16 = 8
)

// Action is one element of a flow rule's or packet_out's action list. An
// empty action list means drop.
type Action interface {
	fmt.Stringer
	encode(b []byte) []byte
	// Apply rewrites the packet in place; Output actions do nothing here
	// (forwarding is the data plane's job).
	Apply(p *netpkt.Packet)
}

// ActionOutput forwards the packet to a port (possibly a virtual port
// such as PortFlood or PortController). Its max_len, the bytes a
// PortController output sends, is written as 0: no stack truncates.
type ActionOutput struct{ Port uint16 }

// Output is shorthand for ActionOutput{Port: port}.
func Output(port uint16) ActionOutput { return ActionOutput{Port: port} }

// String renders the action.
func (a ActionOutput) String() string {
	switch a.Port {
	case PortFlood:
		return "output:flood"
	case PortController:
		return "output:controller"
	case PortAll:
		return "output:all"
	case PortInPort:
		return "output:in_port"
	default:
		return fmt.Sprintf("output:%d", a.Port)
	}
}

// Apply is a no-op: forwarding happens in the data plane.
func (a ActionOutput) Apply(*netpkt.Packet) {}

func (a ActionOutput) encode(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, actOutput)
	b = binary.BigEndian.AppendUint16(b, 8)
	b = binary.BigEndian.AppendUint16(b, a.Port)
	return binary.BigEndian.AppendUint16(b, 0) // max_len
}

// ActionSetNwTOS rewrites the IP TOS field — FloodGuard's migration rules
// use it to preserve INPORT across the detour to the data plane cache.
type ActionSetNwTOS struct{ TOS uint8 }

// String renders the action.
func (a ActionSetNwTOS) String() string { return fmt.Sprintf("set_tos:%d", a.TOS) }

// Apply rewrites the TOS field.
func (a ActionSetNwTOS) Apply(p *netpkt.Packet) {
	if p.IsIP() {
		p.NwTOS = a.TOS
	}
}

func (a ActionSetNwTOS) encode(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, actSetNwTOS)
	b = binary.BigEndian.AppendUint16(b, 8)
	return append(b, a.TOS, 0, 0, 0)
}

// ActionSetNwDst rewrites the IPv4 destination address — the paper's
// ip_balancer rewrites the public VIP to a replica's private address.
type ActionSetNwDst struct{ IP netpkt.IPv4 }

// String renders the action.
func (a ActionSetNwDst) String() string { return fmt.Sprintf("set_nw_dst:%v", a.IP) }

// Apply rewrites the destination IP.
func (a ActionSetNwDst) Apply(p *netpkt.Packet) {
	if p.IsIP() {
		p.NwDst = a.IP
	}
}

func (a ActionSetNwDst) encode(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, actSetNwDst)
	b = binary.BigEndian.AppendUint16(b, 8)
	return binary.BigEndian.AppendUint32(b, uint32(a.IP))
}

func encodeActions(b []byte, actions []Action) []byte {
	for _, a := range actions {
		b = a.encode(b)
	}
	return b
}

// ActionsString renders an action list (empty list = drop).
func ActionsString(actions []Action) string {
	if len(actions) == 0 {
		return "drop"
	}
	parts := make([]string, len(actions))
	for i, a := range actions {
		parts[i] = a.String()
	}
	return strings.Join(parts, ",")
}

// ApplyActions rewrites p through every action in order and returns the
// output ports (real and virtual) the packet must be sent to.
func ApplyActions(p *netpkt.Packet, actions []Action) []uint16 {
	var ports []uint16
	for _, a := range actions {
		if out, ok := a.(ActionOutput); ok {
			ports = append(ports, out.Port)
			continue
		}
		a.Apply(p)
	}
	return ports
}
