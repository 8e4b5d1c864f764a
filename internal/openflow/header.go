// Package openflow implements the subset of the OpenFlow 1.0 "southbound"
// protocol that a reactive controller and switch need to speak: the
// framed binary codec, the 12-tuple match with wildcards, the action list,
// and the session messages (hello, echo, features, packet_in, packet_out,
// flow_mod, flow_removed, port_status, barrier, error).
//
// The wire layout follows the OpenFlow 1.0.0 specification so that
// captures are recognisable, but the package is self-contained: the repo's
// switch simulator and controller are the only intended peers.
package openflow

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Version is the only protocol version this implementation speaks.
const Version uint8 = 0x01

// Type identifies an OpenFlow message type.
type Type uint8

// OpenFlow 1.0 message types (subset).
const (
	TypeHello           Type = 0
	TypeError           Type = 1
	TypeEchoRequest     Type = 2
	TypeEchoReply       Type = 3
	TypeFeaturesRequest Type = 5
	TypeFeaturesReply   Type = 6
	TypePacketIn        Type = 10
	TypeFlowRemoved     Type = 11
	TypePortStatus      Type = 12
	TypePacketOut       Type = 13
	TypeFlowMod         Type = 14
	TypeBarrierRequest  Type = 18
	TypeBarrierReply    Type = 19
	TypeStatsRequest    Type = 16
	TypeStatsReply      Type = 17
)

// String names the message type.
func (t Type) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeError:
		return "error"
	case TypeEchoRequest:
		return "echo_request"
	case TypeEchoReply:
		return "echo_reply"
	case TypeFeaturesRequest:
		return "features_request"
	case TypeFeaturesReply:
		return "features_reply"
	case TypePacketIn:
		return "packet_in"
	case TypeFlowRemoved:
		return "flow_removed"
	case TypePortStatus:
		return "port_status"
	case TypePacketOut:
		return "packet_out"
	case TypeFlowMod:
		return "flow_mod"
	case TypeBarrierRequest:
		return "barrier_request"
	case TypeBarrierReply:
		return "barrier_reply"
	case TypeStatsRequest:
		return "stats_request"
	case TypeStatsReply:
		return "stats_reply"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

const headerLen = 8

// Message is any OpenFlow message body.
type Message interface {
	// MsgType returns the header type for the message.
	MsgType() Type
	// encodeBody appends the body (everything after the 8-byte header).
	encodeBody(b []byte) []byte
}

// Framed couples a message with its transaction id.
type Framed struct {
	XID uint32
	Msg Message
}

// Encode serialises a framed message.
func Encode(xid uint32, m Message) []byte {
	return AppendFrame(make([]byte, 0, 64), xid, m)
}

// AppendFrame appends the framed wire form of m to b: the header is
// written up front with a zero length, the body encodes directly behind
// it, and the length field is patched afterwards. Header and body share
// one buffer, so steady-state encoding through a reused buffer does not
// allocate.
func AppendFrame(b []byte, xid uint32, m Message) []byte {
	start := len(b)
	b = append(b, Version, byte(m.MsgType()), 0, 0)
	b = binary.BigEndian.AppendUint32(b, xid)
	b = m.encodeBody(b)
	binary.BigEndian.PutUint16(b[start+2:start+4], uint16(len(b)-start))
	return b
}

// frameScratch recycles FrameLen's encode buffers, whose frames never
// outlive the call.
var frameScratch = sync.Pool{
	New: func() any { return &frameBuf{b: make([]byte, 0, 256)} },
}

type frameBuf struct{ b []byte }

// FrameLen reports the framed length of m without retaining the frame.
// Use it where only the on-wire size matters (e.g. packet_in byte
// accounting) instead of paying Encode's allocation.
func FrameLen(m Message) int {
	fb := frameScratch.Get().(*frameBuf)
	n := len(AppendFrame(fb.b[:0], 0, m))
	fb.b = fb.b[:0]
	frameScratch.Put(fb)
	return n
}

// Decode parses one complete framed message from b.
func Decode(b []byte) (Framed, error) {
	if len(b) < headerLen {
		return Framed{}, fmt.Errorf("openflow: frame shorter than header")
	}
	if b[0] != Version {
		return Framed{}, fmt.Errorf("openflow: unsupported version %#02x", b[0])
	}
	length := int(binary.BigEndian.Uint16(b[2:4]))
	if length < headerLen || length > len(b) {
		return Framed{}, fmt.Errorf("openflow: bad frame length %d (have %d)", length, len(b))
	}
	msg, err := decodeBody(Type(b[1]), b[headerLen:length])
	if err != nil {
		return Framed{}, err
	}
	return Framed{XID: binary.BigEndian.Uint32(b[4:8]), Msg: msg}, nil
}
