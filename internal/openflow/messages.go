package openflow

import (
	"encoding/binary"
	"fmt"
)

// Hello opens a session.
type Hello struct{}

// MsgType implements Message.
func (Hello) MsgType() Type              { return TypeHello }
func (Hello) encodeBody(b []byte) []byte { return b }

// EchoRequest is a liveness probe.
type EchoRequest struct{ Data []byte }

// MsgType implements Message.
func (EchoRequest) MsgType() Type                { return TypeEchoRequest }
func (m EchoRequest) encodeBody(b []byte) []byte { return append(b, m.Data...) }

// EchoReply answers an EchoRequest with the same payload.
type EchoReply struct{ Data []byte }

// MsgType implements Message.
func (EchoReply) MsgType() Type                { return TypeEchoReply }
func (m EchoReply) encodeBody(b []byte) []byte { return append(b, m.Data...) }

// FeaturesRequest asks the datapath for its identity and ports.
type FeaturesRequest struct{}

// MsgType implements Message.
func (FeaturesRequest) MsgType() Type              { return TypeFeaturesRequest }
func (FeaturesRequest) encodeBody(b []byte) []byte { return b }

// PhyPort describes one switch port in a FeaturesReply.
type PhyPort struct {
	PortNo uint16
	Name   string // at most 15 bytes on the wire
}

// FeaturesReply announces the datapath id, buffer count and port list.
type FeaturesReply struct {
	DatapathID uint64
	NBuffers   uint32
	NTables    uint8
	Ports      []PhyPort
}

// MsgType implements Message.
func (FeaturesReply) MsgType() Type { return TypeFeaturesReply }

func (m FeaturesReply) encodeBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, m.DatapathID)
	b = binary.BigEndian.AppendUint32(b, m.NBuffers)
	b = append(b, m.NTables, 0, 0, 0)
	b = binary.BigEndian.AppendUint32(b, 0) // capabilities
	b = binary.BigEndian.AppendUint32(b, 0) // actions
	for _, p := range m.Ports {
		b = binary.BigEndian.AppendUint16(b, p.PortNo)
		b = append(b, make([]byte, 6)...) // hw_addr
		name := make([]byte, 16)
		copy(name, p.Name)
		name[15] = 0
		b = append(b, name...)
		b = append(b, make([]byte, 24)...) // config/state/features
	}
	return b
}

// PacketInReason explains why the packet was sent to the controller.
type PacketInReason uint8

// packet_in reasons.
const (
	ReasonNoMatch PacketInReason = 0
	ReasonAction  PacketInReason = 1
)

// PacketIn carries a (possibly truncated) table-miss packet to the
// controller. If the switch buffer is full, BufferID is NoBuffer and Data
// holds the whole frame — the paper's amplification vector.
type PacketIn struct {
	BufferID uint32
	TotalLen uint16
	InPort   uint16
	Reason   PacketInReason
	Data     []byte
}

// MsgType implements Message.
func (PacketIn) MsgType() Type { return TypePacketIn }

func (m PacketIn) encodeBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, m.BufferID)
	b = binary.BigEndian.AppendUint16(b, m.TotalLen)
	b = binary.BigEndian.AppendUint16(b, m.InPort)
	b = append(b, byte(m.Reason), 0)
	return append(b, m.Data...)
}

// PacketOut instructs the switch to emit a packet (buffered or attached)
// through an action list.
type PacketOut struct {
	BufferID uint32
	InPort   uint16
	Actions  []Action
	Data     []byte
}

// MsgType implements Message.
func (PacketOut) MsgType() Type { return TypePacketOut }

func (m PacketOut) encodeBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, m.BufferID)
	b = binary.BigEndian.AppendUint16(b, m.InPort)
	actions := encodeActions(nil, m.Actions)
	b = binary.BigEndian.AppendUint16(b, uint16(len(actions)))
	b = append(b, actions...)
	return append(b, m.Data...)
}

// FlowModCommand selects the flow_mod operation.
type FlowModCommand uint16

// flow_mod commands.
const (
	FlowAdd          FlowModCommand = 0
	FlowModify       FlowModCommand = 1
	FlowModifyStrict FlowModCommand = 2
	FlowDelete       FlowModCommand = 3
	FlowDeleteStrict FlowModCommand = 4
)

// String names the command.
func (c FlowModCommand) String() string {
	switch c {
	case FlowAdd:
		return "add"
	case FlowModify:
		return "modify"
	case FlowModifyStrict:
		return "modify_strict"
	case FlowDelete:
		return "delete"
	case FlowDeleteStrict:
		return "delete_strict"
	default:
		return fmt.Sprintf("command(%d)", uint16(c))
	}
}

// FlowMod flags.
const (
	FlagSendFlowRem uint16 = 1 << 0
)

// FlowMod is the Modify State message that installs, modifies or removes
// flow rules — the terminal decision the proactive flow rule analyzer
// looks for (paper Algorithm 2, "Modify State Message").
type FlowMod struct {
	Match       Match
	Cookie      uint64
	Command     FlowModCommand
	IdleTimeout uint16
	HardTimeout uint16
	Priority    uint16
	BufferID    uint32
	OutPort     uint16
	Flags       uint16
	Actions     []Action
}

// MsgType implements Message.
func (FlowMod) MsgType() Type { return TypeFlowMod }

func (m FlowMod) encodeBody(b []byte) []byte {
	b = m.Match.encode(b)
	b = binary.BigEndian.AppendUint64(b, m.Cookie)
	b = binary.BigEndian.AppendUint16(b, uint16(m.Command))
	b = binary.BigEndian.AppendUint16(b, m.IdleTimeout)
	b = binary.BigEndian.AppendUint16(b, m.HardTimeout)
	b = binary.BigEndian.AppendUint16(b, m.Priority)
	b = binary.BigEndian.AppendUint32(b, m.BufferID)
	b = binary.BigEndian.AppendUint16(b, m.OutPort)
	b = binary.BigEndian.AppendUint16(b, m.Flags)
	return encodeActions(b, m.Actions)
}

// FlowRemovedReason explains a FlowRemoved notification.
type FlowRemovedReason uint8

// flow_removed reasons.
const (
	RemovedIdleTimeout FlowRemovedReason = 0
	RemovedHardTimeout FlowRemovedReason = 1
	RemovedDelete      FlowRemovedReason = 2
)

// FlowRemoved notifies the controller that a rule expired or was deleted.
type FlowRemoved struct {
	Match       Match
	Cookie      uint64
	Priority    uint16
	Reason      FlowRemovedReason
	PacketCount uint64
	ByteCount   uint64
}

// MsgType implements Message.
func (FlowRemoved) MsgType() Type { return TypeFlowRemoved }

func (m FlowRemoved) encodeBody(b []byte) []byte {
	b = m.Match.encode(b)
	b = binary.BigEndian.AppendUint64(b, m.Cookie)
	b = binary.BigEndian.AppendUint16(b, m.Priority)
	b = append(b, byte(m.Reason), 0)
	b = binary.BigEndian.AppendUint32(b, 0) // duration_sec
	b = binary.BigEndian.AppendUint32(b, 0) // duration_nsec
	b = binary.BigEndian.AppendUint16(b, 0) // idle_timeout
	b = append(b, 0, 0)
	b = binary.BigEndian.AppendUint64(b, m.PacketCount)
	return binary.BigEndian.AppendUint64(b, m.ByteCount)
}

// PortStatusReason explains a PortStatus notification.
type PortStatusReason uint8

// port_status reasons.
const (
	PortAdded    PortStatusReason = 0
	PortDeleted  PortStatusReason = 1
	PortModified PortStatusReason = 2
)

// PortStatus notifies the controller of a port change — the topology
// dynamics that invalidate previously derived proactive flow rules.
type PortStatus struct {
	Reason PortStatusReason
	Port   PhyPort
}

// MsgType implements Message.
func (PortStatus) MsgType() Type { return TypePortStatus }

func (m PortStatus) encodeBody(b []byte) []byte {
	b = append(b, byte(m.Reason), 0, 0, 0, 0, 0, 0, 0)
	b = binary.BigEndian.AppendUint16(b, m.Port.PortNo)
	b = append(b, make([]byte, 6)...)
	name := make([]byte, 16)
	copy(name, m.Port.Name)
	name[15] = 0
	b = append(b, name...)
	return append(b, make([]byte, 24)...)
}

// BarrierRequest asks the switch to finish all preceding messages.
type BarrierRequest struct{}

// MsgType implements Message.
func (BarrierRequest) MsgType() Type              { return TypeBarrierRequest }
func (BarrierRequest) encodeBody(b []byte) []byte { return b }

// BarrierReply acknowledges a BarrierRequest.
type BarrierReply struct{}

// MsgType implements Message.
func (BarrierReply) MsgType() Type              { return TypeBarrierReply }
func (BarrierReply) encodeBody(b []byte) []byte { return b }

// Error reports a protocol-level failure. It carries no data: the
// switch does not echo the failed request back.
type Error struct {
	ErrType uint16
	Code    uint16
}

// MsgType implements Message.
func (Error) MsgType() Type { return TypeError }

func (m Error) encodeBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, m.ErrType)
	return binary.BigEndian.AppendUint16(b, m.Code)
}

// Error implements the error interface so an Error message can flow
// through error returns.
func (m Error) Error() string {
	return fmt.Sprintf("openflow error type=%d code=%d", m.ErrType, m.Code)
}

// TableStats is the switch-utilization snapshot the migration agent polls
// (carried in StatsRequest/StatsReply with a private stats type: the
// detection algorithm needs buffer occupancy and rule count, which
// OpenFlow 1.0 table stats approximate).
type TableStats struct {
	ActiveRules  uint32
	MaxRules     uint32
	BufferUsed   uint32
	BufferSize   uint32
	LookupCount  uint64
	MatchedCount uint64
	DroppedInput uint64
}

const statsTypeTable uint16 = 3

// StatsRequest asks for a TableStats snapshot.
type StatsRequest struct{}

// MsgType implements Message.
func (StatsRequest) MsgType() Type { return TypeStatsRequest }

func (StatsRequest) encodeBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, statsTypeTable)
	return binary.BigEndian.AppendUint16(b, 0)
}

// StatsReply carries a TableStats snapshot.
type StatsReply struct{ Table TableStats }

// MsgType implements Message.
func (StatsReply) MsgType() Type { return TypeStatsReply }

func (m StatsReply) encodeBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, statsTypeTable)
	b = binary.BigEndian.AppendUint16(b, 0)
	b = binary.BigEndian.AppendUint32(b, m.Table.ActiveRules)
	b = binary.BigEndian.AppendUint32(b, m.Table.MaxRules)
	b = binary.BigEndian.AppendUint32(b, m.Table.BufferUsed)
	b = binary.BigEndian.AppendUint32(b, m.Table.BufferSize)
	b = binary.BigEndian.AppendUint64(b, m.Table.LookupCount)
	b = binary.BigEndian.AppendUint64(b, m.Table.MatchedCount)
	return binary.BigEndian.AppendUint64(b, m.Table.DroppedInput)
}
