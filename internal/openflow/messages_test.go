package openflow

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"floodguard/internal/netpkt"
)

func randMatch(r *rand.Rand) Match {
	var m Match
	m.Wildcards = r.Uint32() & WildAll
	m.InPort = uint16(r.Intn(1 << 16))
	for j := range m.DlSrc {
		m.DlSrc[j] = byte(r.Intn(256))
		m.DlDst[j] = byte(r.Intn(256))
	}
	m.DlType = uint16(r.Intn(1 << 16))
	m.NwProto = uint8(r.Intn(256))
	m.NwSrc = netpkt.IPv4(r.Uint32())
	m.NwDst = netpkt.IPv4(r.Uint32())
	m.TpSrc = uint16(r.Intn(1 << 16))
	m.TpDst = uint16(r.Intn(1 << 16))
	return m
}

func randActions(r *rand.Rand) []Action {
	n := r.Intn(4)
	var out []Action
	for i := 0; i < n; i++ {
		switch r.Intn(5) {
		case 0:
			out = append(out, ActionOutput{Port: uint16(r.Intn(1 << 16)), MaxLen: uint16(r.Intn(1 << 16))})
		case 1:
			out = append(out, ActionSetNwTOS{TOS: uint8(r.Intn(256))})
		case 2:
			out = append(out, ActionSetDlDst{MAC: netpkt.MACFromUint64(uint64(r.Uint32()))})
		case 3:
			out = append(out, ActionSetNwSrc{IP: netpkt.IPv4(r.Uint32())})
		default:
			out = append(out, ActionSetNwDst{IP: netpkt.IPv4(r.Uint32())})
		}
	}
	return out
}

func randBytes(r *rand.Rand, n int) []byte {
	if n == 0 {
		return nil
	}
	b := make([]byte, n)
	r.Read(b)
	return b
}

func randMessage(r *rand.Rand) Message {
	switch r.Intn(14) {
	case 0:
		return Hello{}
	case 1:
		return EchoRequest{Data: randBytes(r, r.Intn(16))}
	case 2:
		return EchoReply{Data: randBytes(r, r.Intn(16))}
	case 3:
		return FeaturesRequest{}
	case 4:
		return FeaturesReply{
			DatapathID: r.Uint64(),
			NBuffers:   r.Uint32(),
			NTables:    1,
			Ports: []PhyPort{
				{PortNo: 1, Name: "eth1"},
				{PortNo: 2, Name: "eth2"},
			},
		}
	case 5:
		return PacketIn{
			BufferID: r.Uint32(),
			TotalLen: uint16(r.Intn(1 << 16)),
			InPort:   uint16(r.Intn(1 << 16)),
			Reason:   PacketInReason(r.Intn(2)),
			Data:     randBytes(r, r.Intn(64)),
		}
	case 6:
		return PacketOut{
			BufferID: r.Uint32(),
			InPort:   uint16(r.Intn(1 << 16)),
			Actions:  randActions(r),
			Data:     randBytes(r, r.Intn(64)),
		}
	case 7:
		return FlowMod{
			Match:       randMatch(r),
			Cookie:      r.Uint64(),
			Command:     FlowModCommand(r.Intn(5)),
			IdleTimeout: uint16(r.Intn(1 << 16)),
			HardTimeout: uint16(r.Intn(1 << 16)),
			Priority:    uint16(r.Intn(1 << 16)),
			BufferID:    r.Uint32(),
			OutPort:     uint16(r.Intn(1 << 16)),
			Flags:       uint16(r.Intn(2)),
			Actions:     randActions(r),
		}
	case 8:
		return FlowRemoved{
			Match:       randMatch(r),
			Cookie:      r.Uint64(),
			Priority:    uint16(r.Intn(1 << 16)),
			Reason:      FlowRemovedReason(r.Intn(3)),
			PacketCount: r.Uint64(),
			ByteCount:   r.Uint64(),
		}
	case 9:
		return PortStatus{
			Reason: PortStatusReason(r.Intn(3)),
			Port:   PhyPort{PortNo: uint16(r.Intn(1 << 16)), Name: "port"},
		}
	case 10:
		return BarrierRequest{}
	case 11:
		return BarrierReply{}
	case 12:
		return Error{ErrType: uint16(r.Intn(8)), Code: uint16(r.Intn(8)), Data: randBytes(r, r.Intn(16))}
	default:
		return StatsReply{Table: TableStats{
			ActiveRules: r.Uint32(), MaxRules: r.Uint32(),
			BufferUsed: r.Uint32(), BufferSize: r.Uint32(),
			LookupCount: r.Uint64(), MatchedCount: r.Uint64(), DroppedInput: r.Uint64(),
		}}
	}
}

func TestMessageEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for i := 0; i < 1000; i++ {
		give := randMessage(r)
		xid := r.Uint32()
		framed, err := Decode(Encode(xid, give))
		if err != nil {
			t.Fatalf("case %d (%v): Decode: %v", i, give.MsgType(), err)
		}
		if framed.XID != xid {
			t.Fatalf("case %d: xid = %d, want %d", i, framed.XID, xid)
		}
		if !reflect.DeepEqual(framed.Msg, give) {
			t.Fatalf("case %d (%v): round trip mismatch:\n give %+v\n got  %+v",
				i, give.MsgType(), give, framed.Msg)
		}
	}
}

// TestReadWriteMessageStream appends frames back to back into one
// buffer and walks it with Decode, advancing by each header's length
// field: every frame's length must land exactly on the next frame.
func TestReadWriteMessageStream(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	var buf []byte
	var want []Framed
	for i := 0; i < 50; i++ {
		f := Framed{XID: uint32(i), Msg: randMessage(r)}
		want = append(want, f)
		buf = AppendFrame(buf, f.XID, f.Msg)
	}
	for i, w := range want {
		got, err := Decode(buf)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("message %d mismatch:\n give %+v\n got  %+v", i, w, got)
		}
		buf = buf[binary.BigEndian.Uint16(buf[2:4]):]
	}
	if len(buf) != 0 {
		t.Fatalf("%d bytes left after the last frame", len(buf))
	}
}

func TestDecodeRejectsBadFrames(t *testing.T) {
	tests := []struct {
		name string
		give []byte
	}{
		{"short header", []byte{1, 0}},
		{"bad version", append([]byte{9, 0, 0, 8}, make([]byte, 4)...)},
		{"length < header", append([]byte{1, 0, 0, 4}, make([]byte, 4)...)},
		{"unknown type", append([]byte{1, 200, 0, 8}, make([]byte, 4)...)},
	}
	for _, tt := range tests {
		if _, err := Decode(tt.give); err == nil {
			t.Errorf("%s: Decode succeeded, want error", tt.name)
		}
	}
}

func TestDecodeActionsRejectsGarbage(t *testing.T) {
	if _, err := decodeActions([]byte{0, 0}); err == nil {
		t.Error("short action header accepted")
	}
	if _, err := decodeActions([]byte{0, 99, 0, 2}); err == nil {
		t.Error("undersized action length accepted")
	}
	if _, err := decodeActions([]byte{0, 42, 0, 8, 0, 0, 0, 0}); err == nil {
		t.Error("unknown action type accepted")
	}
}

func TestApplyActions(t *testing.T) {
	p := netpkt.Packet{
		EthType: netpkt.EtherTypeIPv4,
		NwProto: netpkt.ProtoUDP,
		NwDst:   netpkt.MustIPv4("10.0.0.100"),
	}
	actions := []Action{
		ActionSetNwTOS{TOS: 12},
		ActionSetNwDst{IP: netpkt.MustIPv4("192.168.0.1")},
		Output(3),
		Output(PortController),
	}
	ports := ApplyActions(&p, actions)
	if p.NwTOS != 12 {
		t.Errorf("TOS = %d, want 12", p.NwTOS)
	}
	if p.NwDst != netpkt.MustIPv4("192.168.0.1") {
		t.Errorf("NwDst = %v", p.NwDst)
	}
	if len(ports) != 2 || ports[0] != 3 || ports[1] != PortController {
		t.Errorf("ports = %v", ports)
	}
}

func TestActionsString(t *testing.T) {
	if got := ActionsString(nil); got != "drop" {
		t.Errorf("ActionsString(nil) = %q", got)
	}
	got := ActionsString([]Action{ActionSetNwTOS{TOS: 1}, Output(PortFlood)})
	if got != "set_tos:1,output:flood" {
		t.Errorf("ActionsString = %q", got)
	}
}

func TestErrorImplementsError(t *testing.T) {
	var err error = Error{ErrType: 1, Code: 2}
	if err.Error() == "" {
		t.Error("empty error string")
	}
}

func TestTypeString(t *testing.T) {
	if TypePacketIn.String() != "packet_in" || TypeFlowMod.String() != "flow_mod" {
		t.Error("type names wrong")
	}
	if Type(77).String() != "type(77)" {
		t.Error("unknown type name wrong")
	}
}

// TestAppendFramePacketInAllocatesNothing pins the replay path's encode:
// a concrete PacketIn framed into a buffer with room for it allocates
// nothing, and its bytes are those of the Message-typed encode.
func TestAppendFramePacketInAllocatesNothing(t *testing.T) {
	data := make([]byte, 64)
	buf := make([]byte, 0, 256)
	xid := uint32(0)
	if a := testing.AllocsPerRun(1000, func() {
		buf = AppendFrame(buf[:0], xid, PacketIn{
			BufferID: NoBuffer, TotalLen: uint16(len(data)),
			InPort: 3, Reason: ReasonNoMatch, Data: data,
		})
		xid++
	}); a != 0 {
		t.Fatalf("AppendFrame(PacketIn) allocates %v per encode, want 0", a)
	}
	var m Message = PacketIn{BufferID: NoBuffer, TotalLen: uint16(len(data)), InPort: 3, Reason: ReasonNoMatch, Data: data}
	if got, want := AppendFrame(nil, xid-1, m), buf; !reflect.DeepEqual(got, want) {
		t.Fatalf("Message-typed encode %x, concrete %x", got, want)
	}
}
