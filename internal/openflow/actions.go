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
	actSetDlDst uint16 = 5
	actSetNwSrc uint16 = 6
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
// such as PortFlood or PortController).
type ActionOutput struct {
	Port uint16
	// MaxLen bounds the bytes sent to the controller for PortController.
	MaxLen uint16
}

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
	return binary.BigEndian.AppendUint16(b, a.MaxLen)
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

// ActionSetDlDst rewrites the Ethernet destination address.
type ActionSetDlDst struct{ MAC netpkt.MAC }

// String renders the action.
func (a ActionSetDlDst) String() string { return fmt.Sprintf("set_dl_dst:%v", a.MAC) }

// Apply rewrites the destination MAC.
func (a ActionSetDlDst) Apply(p *netpkt.Packet) { p.EthDst = a.MAC }

func (a ActionSetDlDst) encode(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, actSetDlDst)
	b = binary.BigEndian.AppendUint16(b, 16)
	b = append(b, a.MAC[:]...)
	return append(b, 0, 0, 0, 0, 0, 0)
}

// ActionSetNwSrc rewrites the IPv4 source address.
type ActionSetNwSrc struct{ IP netpkt.IPv4 }

// String renders the action.
func (a ActionSetNwSrc) String() string { return fmt.Sprintf("set_nw_src:%v", a.IP) }

// Apply rewrites the source IP.
func (a ActionSetNwSrc) Apply(p *netpkt.Packet) {
	if p.IsIP() {
		p.NwSrc = a.IP
	}
}

func (a ActionSetNwSrc) encode(b []byte) []byte { return encodeNwAction(b, actSetNwSrc, a.IP) }

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

func (a ActionSetNwDst) encode(b []byte) []byte { return encodeNwAction(b, actSetNwDst, a.IP) }

func encodeNwAction(b []byte, typ uint16, ip netpkt.IPv4) []byte {
	b = binary.BigEndian.AppendUint16(b, typ)
	b = binary.BigEndian.AppendUint16(b, 8)
	return binary.BigEndian.AppendUint32(b, uint32(ip))
}

func encodeActions(b []byte, actions []Action) []byte {
	for _, a := range actions {
		b = a.encode(b)
	}
	return b
}

func decodeActions(b []byte) ([]Action, error) {
	var actions []Action
	for len(b) > 0 {
		if len(b) < 4 {
			return nil, fmt.Errorf("openflow: action header: short buffer")
		}
		typ := binary.BigEndian.Uint16(b[0:2])
		alen := int(binary.BigEndian.Uint16(b[2:4]))
		if alen < 8 || alen > len(b) {
			return nil, fmt.Errorf("openflow: action length %d out of range", alen)
		}
		body := b[4:alen]
		var act Action
		switch typ {
		case actOutput:
			act = ActionOutput{
				Port:   binary.BigEndian.Uint16(body[0:2]),
				MaxLen: binary.BigEndian.Uint16(body[2:4]),
			}
		case actSetNwTOS:
			act = ActionSetNwTOS{TOS: body[0]}
		case actSetDlDst:
			var m netpkt.MAC
			copy(m[:], body[:6])
			act = ActionSetDlDst{MAC: m}
		case actSetNwSrc:
			act = ActionSetNwSrc{IP: netpkt.IPv4(binary.BigEndian.Uint32(body[0:4]))}
		case actSetNwDst:
			act = ActionSetNwDst{IP: netpkt.IPv4(binary.BigEndian.Uint32(body[0:4]))}
		default:
			return nil, fmt.Errorf("openflow: unsupported action type %d", typ)
		}
		actions = append(actions, act)
		b = b[alen:]
	}
	return actions, nil
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
