package openflow

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"reflect"
	"strings"
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
		switch r.Intn(3) {
		case 0:
			out = append(out, Output(uint16(r.Intn(1<<16))))
		case 1:
			out = append(out, ActionSetNwTOS{TOS: uint8(r.Intn(256))})
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
		return Error{ErrType: uint16(r.Intn(8)), Code: uint16(r.Intn(8))}
	default:
		return StatsReply{Table: TableStats{
			ActiveRules: r.Uint32(), MaxRules: r.Uint32(),
			BufferUsed: r.Uint32(), BufferSize: r.Uint32(),
			LookupCount: r.Uint64(), MatchedCount: r.Uint64(), DroppedInput: r.Uint64(),
		}}
	}
}

// unhex decodes a hex literal written with spaces between its fields.
func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.Join(strings.Fields(s), ""))
	if err != nil {
		t.Fatalf("bad hex literal: %v", err)
	}
	return b
}

// TestAppendFrameMatchesOpenFlow10Layout frames every message and
// action the switch, the controller, the Guard and the benchmark emit,
// and compares the bytes with frames written by hand from the OpenFlow
// 1.0.0 struct layouts: the 8-byte ofp_header, the 40-byte ofp_match
// with the nw_src and nw_dst masks at wildcard bits 8 and 14, the
// 72-byte ofp_flow_mod, ofp_packet_in's data at offset 18, the 16-byte
// ofp_packet_out, the 88-byte ofp_flow_removed, the 64-byte
// ofp_port_status around a 48-byte ofp_phy_port, the 32-byte
// ofp_switch_features, the 12-byte ofp_error_msg and ofp_stats_request,
// and 8-byte actions. Within the flow_mod, flow_removed and match
// frames every field carries a distinct value, so two fields written in
// each other's place change the bytes.
func TestAppendFrameMatchesOpenFlow10Layout(t *testing.T) {
	// nw_src 10.0.0.1/16 and nw_dst 10.1.2.0/24: the masks encode as 32
	// minus the prefix length, 16 at bit 8 and 8 at bit 14; nw_tos is
	// wildcarded (bit 21) but still written.
	m := Match{
		Wildcards: WildNwTOS,
		InPort:    3,
		DlSrc:     netpkt.MustMAC("00:00:00:00:00:0a"),
		DlDst:     netpkt.MustMAC("00:00:00:00:00:0b"),
		DlVLAN:    100,
		DlVLANPCP: 5,
		DlType:    netpkt.EtherTypeIPv4,
		NwTOS:     0x10,
		NwProto:   netpkt.ProtoTCP,
		NwSrc:     netpkt.MustIPv4("10.0.0.1"),
		NwDst:     netpkt.MustIPv4("10.1.2.0"),
		TpSrc:     1000,
		TpDst:     80,
	}
	m.SetNwSrcMaskLen(16)
	m.SetNwDstMaskLen(24)
	const match = ` 00221000` + // wildcards
		` 0003 00000000000a 00000000000b` + // in_port, dl_src, dl_dst
		` 0064 05 00 0800` + // dl_vlan, dl_vlan_pcp, pad, dl_type
		` 10 06 0000` + // nw_tos, nw_proto, pad
		` 0a000001 0a010200 03e8 0050` // nw_src, nw_dst, tp_src, tp_dst
	const allWild = ` 003fffff 0000 000000000000 000000000000 0000 00 00 0000 00 00 0000 00000000 00000000 0000 0000`
	frame := []byte{0xde, 0xad, 0xbe, 0xef}

	tests := []struct {
		name string
		xid  uint32
		msg  Message
		want string
	}{
		{"hello", 1, Hello{}, `01 00 0008 00000001`},
		{"echo_request", 2, EchoRequest{Data: []byte("hb")}, `01 02 000a 00000002 6862`},
		{"echo_reply", 3, EchoReply{Data: []byte("hb")}, `01 03 000a 00000003 6862`},
		{"features_request", 4, FeaturesRequest{}, `01 05 0008 00000004`},
		{"features_reply", 5, FeaturesReply{
			DatapathID: 0x0102030405060708, NBuffers: 256, NTables: 1,
			Ports: []PhyPort{{PortNo: 1, Name: "eth1"}, {PortNo: PortLocal, Name: "br0-local-bridge-port"}},
		}, `01 06 0080 00000005
			0102030405060708 00000100 01 000000 00000000 00000000
			0001 000000000000 65746831000000000000000000000000 000000000000000000000000000000000000000000000000
			fffe 000000000000 6272302d6c6f63616c2d627269646700 000000000000000000000000000000000000000000000000`},
		{"packet_in unbuffered", 6, PacketIn{
			BufferID: NoBuffer, TotalLen: 4, InPort: 3, Reason: ReasonNoMatch, Data: frame,
		}, `01 0a 0016 00000006 ffffffff 0004 0003 00 00 deadbeef`},
		{"packet_in buffered", 7, PacketIn{
			BufferID: 7, TotalLen: 1500, InPort: 2, Reason: ReasonAction, Data: frame,
		}, `01 0a 0016 00000007 00000007 05dc 0002 01 00 deadbeef`},
		{"packet_out unbuffered", 8, PacketOut{
			BufferID: NoBuffer, InPort: 1, Actions: []Action{Output(PortFlood)}, Data: frame,
		}, `01 0d 001c 00000008 ffffffff 0001 0008 0000 0008 fffb 0000 deadbeef`},
		{"packet_out buffered drop", 9, PacketOut{BufferID: 7, InPort: 2},
			`01 0d 0010 00000009 00000007 0002 0000`},
		{"flow_mod add", 10, FlowMod{
			Match: m, Cookie: 0x1122334455667788, Command: FlowAdd,
			IdleTimeout: 10, HardTimeout: 30, Priority: 0x8000,
			BufferID: NoBuffer, OutPort: PortNone, Flags: FlagSendFlowRem,
			Actions: []Action{
				Output(PortController),
				Output(2),
				ActionSetNwTOS{TOS: 9},
				ActionSetNwDst{IP: netpkt.MustIPv4("192.168.0.1")},
			},
		}, `01 0e 0068 0000000a` + match + `
			1122334455667788 0000 000a 001e 8000 ffffffff ffff 0001
			0000 0008 fffd 0000
			0000 0008 0002 0000
			0008 0008 09 000000
			0007 0008 c0a80001`},
		{"flow_mod delete_strict", 11, FlowMod{
			Match: MatchAll(), Command: FlowDeleteStrict, Priority: 1,
			BufferID: NoBuffer, OutPort: PortNone,
		}, `01 0e 0048 0000000b` + allWild + `
			0000000000000000 0004 0000 0000 0001 ffffffff ffff 0000`},
		{"flow_removed", 12, FlowRemoved{
			Match: m, Cookie: 0x1122334455667788, Priority: 0x8000,
			Reason: RemovedHardTimeout, PacketCount: 5, ByteCount: 320,
		}, `01 0b 0058 0000000c` + match + `
			1122334455667788 8000 01 00 00000000 00000000 0000 0000
			0000000000000005 0000000000000140`},
		{"port_status", 13, PortStatus{Reason: PortModified, Port: PhyPort{PortNo: 2, Name: "s1-eth2"}},
			`01 0c 0040 0000000d 02 00000000000000
			0002 000000000000 73312d65746832000000000000000000 000000000000000000000000000000000000000000000000`},
		{"barrier_request", 14, BarrierRequest{}, `01 12 0008 0000000e`},
		{"barrier_reply", 15, BarrierReply{}, `01 13 0008 0000000f`},
		{"error", 16, Error{ErrType: 3, Code: 1}, `01 01 000c 00000010 0003 0001`},
		{"stats_request table", 17, StatsRequest{}, `01 10 000c 00000011 0003 0000`},
		// The reply's body after the 12-byte ofp_stats_reply header is the
		// repository's own TableStats snapshot, not ofp_table_stats.
		{"stats_reply table", 18, StatsReply{Table: TableStats{
			ActiveRules: 1, MaxRules: 2, BufferUsed: 3, BufferSize: 4,
			LookupCount: 5, MatchedCount: 6, DroppedInput: 7,
		}}, `01 11 0034 00000012 0003 0000 00000001 00000002 00000003 00000004
			0000000000000005 0000000000000006 0000000000000007`},
	}
	for _, tt := range tests {
		want := unhex(t, tt.want)
		got := AppendFrame([]byte{0xaa}, tt.xid, tt.msg)[1:]
		if !bytes.Equal(got, want) {
			t.Errorf("%s:\n got  % x\n want % x", tt.name, got, want)
		}
		if n := FrameLen(tt.msg); n != len(want) {
			t.Errorf("%s: FrameLen = %d, want %d", tt.name, n, len(want))
		}
	}
}

// TestReadWriteMessageStream appends frames back to back into one
// buffer and walks it by header alone: each frame carries version 1,
// its message's type and its xid, and its length field lands exactly on
// the next frame.
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
		if len(buf) < 8 {
			t.Fatalf("message %d: %d bytes left, want a header", i, len(buf))
		}
		if buf[0] != Version || Type(buf[1]) != w.Msg.MsgType() || binary.BigEndian.Uint32(buf[4:8]) != w.XID {
			t.Fatalf("message %d: header % x, want version %d, type %v, xid %d", i, buf[:8], Version, w.Msg.MsgType(), w.XID)
		}
		n := int(binary.BigEndian.Uint16(buf[2:4]))
		if n != FrameLen(w.Msg) || n > len(buf) {
			t.Fatalf("message %d: length %d, want %d within the %d bytes left", i, n, FrameLen(w.Msg), len(buf))
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d bytes left after the last frame", len(buf))
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

// BenchmarkOpenFlowEncode frames a flow_mod into a reused buffer, the
// way the replay path frames packet_in.
func BenchmarkOpenFlowEncode(b *testing.B) {
	p := netpkt.NewSpoofGen(1, netpkt.FloodUDP, 64).Next()
	fm := FlowMod{
		Match:    ExactFrom(&p, 1),
		Command:  FlowAdd,
		Priority: 100,
		BufferID: NoBuffer,
		Actions:  []Action{Output(2)},
	}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendFrame(buf[:0], uint32(i), fm)
	}
}
