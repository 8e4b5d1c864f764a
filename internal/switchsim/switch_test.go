package switchsim

import (
	"testing"
	"time"

	"floodguard/internal/netpkt"
	"floodguard/internal/netsim"
	"floodguard/internal/openflow"
)

// fakeController records switch messages and can answer them.
type fakeController struct {
	msgs []openflow.Framed
	// onPacketIn, when set, runs for every packet_in.
	onPacketIn func(sw *Switch, pi openflow.PacketIn)
}

func (c *fakeController) FromSwitch(sw *Switch, f openflow.Framed) {
	c.msgs = append(c.msgs, f)
	if pi, ok := f.Msg.(openflow.PacketIn); ok && c.onPacketIn != nil {
		c.onPacketIn(sw, pi)
	}
}

func (c *fakeController) packetIns() []openflow.PacketIn {
	var out []openflow.PacketIn
	for _, f := range c.msgs {
		if pi, ok := f.Msg.(openflow.PacketIn); ok {
			out = append(out, pi)
		}
	}
	return out
}

type sink struct{ got []netpkt.Packet }

func (s *sink) DeliverFromSwitch(pkt netpkt.Packet) { s.got = append(s.got, pkt) }

func testSwitch(t *testing.T) (*netsim.Engine, *Switch, *fakeController) {
	t.Helper()
	eng := netsim.NewEngine()
	sw := New(eng, 0x1, SoftwareProfile())
	ctl := &fakeController{}
	sw.SetControlPlane(ctl)
	sw.Start()
	t.Cleanup(sw.Stop)
	return eng, sw, ctl
}

func udpPkt(dst netpkt.MAC) netpkt.Packet {
	return netpkt.Packet{
		EthSrc:  netpkt.MustMAC("00:00:00:00:00:01"),
		EthDst:  dst,
		EthType: netpkt.EtherTypeIPv4,
		NwSrc:   netpkt.MustIPv4("10.0.0.1"),
		NwDst:   netpkt.MustIPv4("10.0.0.2"),
		NwProto: netpkt.ProtoUDP,
		TpSrc:   4000, TpDst: 53,
		PayloadLen: 100,
	}
}

func flowModFor(pkt *netpkt.Packet, inPort uint16, out uint16) openflow.FlowMod {
	return openflow.FlowMod{
		Match:    openflow.ExactFrom(pkt, inPort),
		Command:  openflow.FlowAdd,
		Priority: 100,
		BufferID: openflow.NoBuffer,
		Actions:  []openflow.Action{openflow.Output(out)},
	}
}

func TestMissSendsPacketInWithBuffer(t *testing.T) {
	eng, sw, ctl := testSwitch(t)
	p := udpPkt(netpkt.MustMAC("00:00:00:00:00:02"))
	sw.Inject(p, 1)
	eng.RunFor(100 * time.Millisecond)

	pis := ctl.packetIns()
	if len(pis) != 1 {
		t.Fatalf("packet_ins = %d, want 1", len(pis))
	}
	pi := pis[0]
	if pi.BufferID == openflow.NoBuffer {
		t.Error("miss with free buffer slots sent NoBuffer")
	}
	if pi.InPort != 1 {
		t.Errorf("in_port = %d", pi.InPort)
	}
	if len(pi.Data) > sw.Profile().PacketInHeaderBytes {
		t.Errorf("buffered packet_in carries %d bytes, want <= %d", len(pi.Data), sw.Profile().PacketInHeaderBytes)
	}
	if got := sw.Stats().Missed; got != 1 {
		t.Errorf("Missed = %d", got)
	}
}

func TestBufferExhaustionAmplifies(t *testing.T) {
	eng := netsim.NewEngine()
	prof := SoftwareProfile()
	prof.BufferSlots = 4
	prof.BufferTimeout = time.Hour // keep slots occupied
	sw := New(eng, 0x1, prof)
	ctl := &fakeController{}
	sw.SetControlPlane(ctl)
	sw.Start()
	defer sw.Stop()

	g := netpkt.NewSpoofGen(1, netpkt.FloodUDP, 400)
	for i := 0; i < 10; i++ {
		sw.Inject(g.Next(), 1)
	}
	eng.RunFor(time.Second)

	pis := ctl.packetIns()
	if len(pis) != 10 {
		t.Fatalf("packet_ins = %d, want 10", len(pis))
	}
	amplified := 0
	for _, pi := range pis {
		if pi.BufferID == openflow.NoBuffer {
			amplified++
			if len(pi.Data) <= prof.PacketInHeaderBytes {
				t.Errorf("amplified packet_in carries only %d bytes", len(pi.Data))
			}
		}
	}
	if amplified != 6 {
		t.Errorf("amplified = %d, want 6 (10 misses, 4 slots)", amplified)
	}
	if got := sw.Stats().AmplifiedIns; got != 6 {
		t.Errorf("AmplifiedIns = %d", got)
	}
}

func TestFlowModReleasesBufferedPacket(t *testing.T) {
	eng, sw, ctl := testSwitch(t)
	dst := &sink{}
	sw.AttachPort(2, dst, 1e9, time.Millisecond)

	p := udpPkt(netpkt.MustMAC("00:00:00:00:00:02"))
	ctl.onPacketIn = func(s *Switch, pi openflow.PacketIn) {
		fm := flowModFor(&p, pi.InPort, 2)
		fm.BufferID = pi.BufferID
		s.FromController(openflow.Framed{XID: 1, Msg: fm})
	}
	sw.Inject(p, 1)
	eng.RunFor(time.Second)

	if len(dst.got) != 1 {
		t.Fatalf("delivered = %d, want 1 (buffered packet released by flow_mod)", len(dst.got))
	}
	if sw.Table().Len() != 1 {
		t.Errorf("table rules = %d, want 1", sw.Table().Len())
	}
	// Subsequent packets of the flow are forwarded without packet_ins.
	before := len(ctl.packetIns())
	sw.Inject(p, 1)
	eng.RunFor(time.Second)
	if got := len(ctl.packetIns()); got != before {
		t.Errorf("matched packet produced a packet_in")
	}
	if len(dst.got) != 2 {
		t.Errorf("delivered = %d, want 2", len(dst.got))
	}
}

func TestPacketOutFloodsAllPortsExceptIngress(t *testing.T) {
	eng, sw, _ := testSwitch(t)
	peers := map[uint16]*sink{1: {}, 2: {}, 3: {}}
	for no, p := range peers {
		sw.AttachPort(no, p, 1e9, 0)
	}
	p := udpPkt(netpkt.Broadcast)
	sw.FromController(openflow.Framed{XID: 5, Msg: openflow.PacketOut{
		BufferID: openflow.NoBuffer,
		InPort:   1,
		Actions:  []openflow.Action{openflow.Output(openflow.PortFlood)},
		Data:     p.Marshal(),
	}})
	eng.RunFor(time.Second)
	if len(peers[1].got) != 0 {
		t.Error("flood delivered to ingress port")
	}
	if len(peers[2].got) != 1 || len(peers[3].got) != 1 {
		t.Errorf("flood deliveries = %d,%d, want 1,1", len(peers[2].got), len(peers[3].got))
	}
}

func TestDropRuleDiscards(t *testing.T) {
	eng, sw, ctl := testSwitch(t)
	dst := &sink{}
	sw.AttachPort(2, dst, 1e9, 0)
	p := udpPkt(netpkt.MustMAC("00:00:00:00:00:02"))
	fm := flowModFor(&p, 1, 2)
	fm.Actions = nil // drop
	sw.FromController(openflow.Framed{XID: 1, Msg: fm})
	eng.RunFor(10 * time.Millisecond)
	sw.Inject(p, 1)
	eng.RunFor(time.Second)
	if len(dst.got) != 0 {
		t.Error("drop rule forwarded the packet")
	}
	if len(ctl.packetIns()) != 0 {
		t.Error("drop rule produced a packet_in")
	}
}

func TestHelloFeaturesEchoBarrierStats(t *testing.T) {
	eng, sw, ctl := testSwitch(t)
	sw.AttachPort(1, &sink{}, 1e9, 0)
	sw.AttachPort(2, &sink{}, 1e9, 0)
	sw.FromController(openflow.Framed{XID: 1, Msg: openflow.Hello{}})
	sw.FromController(openflow.Framed{XID: 2, Msg: openflow.FeaturesRequest{}})
	sw.FromController(openflow.Framed{XID: 3, Msg: openflow.EchoRequest{Data: []byte("x")}})
	sw.FromController(openflow.Framed{XID: 4, Msg: openflow.BarrierRequest{}})
	sw.FromController(openflow.Framed{XID: 5, Msg: openflow.StatsRequest{}})
	eng.RunFor(time.Second)

	var gotHello, gotFeatures, gotEcho, gotBarrier, gotStats bool
	for _, f := range ctl.msgs {
		switch m := f.Msg.(type) {
		case openflow.Hello:
			gotHello = true
		case openflow.FeaturesReply:
			gotFeatures = true
			if m.DatapathID != 0x1 || len(m.Ports) != 2 {
				t.Errorf("features = %+v", m)
			}
		case openflow.EchoReply:
			gotEcho = string(m.Data) == "x"
		case openflow.BarrierReply:
			gotBarrier = true
		case openflow.StatsReply:
			gotStats = true
		}
	}
	if !gotHello || !gotFeatures || !gotEcho || !gotBarrier || !gotStats {
		t.Errorf("session messages missing: hello=%t features=%t echo=%t barrier=%t stats=%t",
			gotHello, gotFeatures, gotEcho, gotBarrier, gotStats)
	}
}

func TestTableFullSendsError(t *testing.T) {
	eng := netsim.NewEngine()
	prof := SoftwareProfile()
	prof.TableCapacity = 1
	sw := New(eng, 0x1, prof)
	ctl := &fakeController{}
	sw.SetControlPlane(ctl)

	g := netpkt.NewSpoofGen(2, netpkt.FloodUDP, 0)
	p1, p2 := g.Next(), g.Next()
	sw.FromController(openflow.Framed{XID: 1, Msg: flowModFor(&p1, 1, 2)})
	sw.FromController(openflow.Framed{XID: 2, Msg: flowModFor(&p2, 1, 2)})
	eng.RunFor(time.Second)

	gotErr := false
	for _, f := range ctl.msgs {
		if _, ok := f.Msg.(openflow.Error); ok {
			gotErr = true
		}
	}
	if !gotErr {
		t.Error("table-full flow_mod did not produce an error message")
	}
}

func TestMissRateTracking(t *testing.T) {
	eng, sw, _ := testSwitch(t)
	g := netpkt.NewSpoofGen(3, netpkt.FloodUDP, 64)
	// 100 misses per second for 2 seconds.
	tk := eng.NewTicker(10*time.Millisecond, func() { sw.Inject(g.Next(), 1) })
	eng.RunFor(2 * time.Second)
	tk.Stop()
	rate := sw.Stats().MissRatePPS
	if rate < 60 || rate > 140 {
		t.Errorf("MissRatePPS = %v, want ~100", rate)
	}
	share := sw.ControlShareConsumed()
	if share <= 0 || share >= 1 {
		t.Errorf("ControlShareConsumed = %v, want in (0,1)", share)
	}
	// Rate decays once the flood stops.
	eng.RunFor(3 * time.Second)
	if got := sw.Stats().MissRatePPS; got > rate/2 {
		t.Errorf("MissRatePPS after quiet period = %v, want decayed", got)
	}
}

func TestGoodputShareCollapsesAtProfileRate(t *testing.T) {
	for _, prof := range []Profile{SoftwareProfile(), HardwareProfile()} {
		eng := netsim.NewEngine()
		sw := New(eng, 1, prof)
		sw.SetControlPlane(&fakeController{})
		sw.Start()
		g := netpkt.NewSpoofGen(4, netpkt.FloodUDP, 64)
		interval := time.Duration(float64(time.Second) / prof.CollapseRatePPS)
		tk := eng.NewTicker(interval, func() { sw.Inject(g.Next(), 1) })
		eng.RunFor(3 * time.Second)
		tk.Stop()
		sw.Stop()
		if share := sw.GoodputShare(); share > 0.15 {
			t.Errorf("%s: goodput share at collapse rate = %v, want near 0", prof.Name, share)
		}
	}
}

func TestHostSendReceive(t *testing.T) {
	eng, sw, ctl := testSwitch(t)
	a := NewHost(eng, sw, "a", 1, netpkt.MustMAC("00:00:00:00:00:0a"), netpkt.MustIPv4("10.0.0.1"), 1e9, time.Millisecond)
	b := NewHost(eng, sw, "b", 2, netpkt.MustMAC("00:00:00:00:00:0b"), netpkt.MustIPv4("10.0.0.2"), 1e9, time.Millisecond)

	// Pre-install a forwarding rule a->b.
	p := netpkt.Flow{
		SrcMAC: a.MAC, DstMAC: b.MAC, SrcIP: a.IP, DstIP: b.IP,
		Proto: netpkt.ProtoUDP, SrcPort: 1000, DstPort: 2000,
	}.Packet(200)
	sw.FromController(openflow.Framed{XID: 1, Msg: flowModFor(&p, 1, 2)})
	eng.RunFor(10 * time.Millisecond)

	var got []netpkt.Packet
	b.OnReceive = func(pkt netpkt.Packet) { got = append(got, pkt) }
	for i := 0; i < 5; i++ {
		a.Send(p)
	}
	eng.RunFor(time.Second)
	if len(got) != 5 || b.Received() != 5 {
		t.Errorf("b received %d/%d, want 5", len(got), b.Received())
	}
	if len(ctl.packetIns()) != 0 {
		t.Error("matched traffic produced packet_ins")
	}
}

func TestFlooderRateAndDeterminism(t *testing.T) {
	eng, sw, ctl := testSwitch(t)
	h := NewHost(eng, sw, "atk", 3, netpkt.MustMAC("00:00:00:00:00:aa"), netpkt.MustIPv4("10.0.0.9"), 1e9, 0)
	f := NewFlooder(h, 42, netpkt.FloodUDP, 64)
	f.Start(200)
	eng.RunFor(time.Second)
	f.Stop()
	eng.RunFor(time.Second)
	if sent := f.Sent(); sent < 190 || sent > 210 {
		t.Errorf("Sent = %d, want ~200", sent)
	}
	if got := uint64(len(ctl.packetIns())); got != f.Sent() {
		t.Errorf("packet_ins = %d, want %d (every spoofed packet misses)", got, f.Sent())
	}
}

func TestBufferSlotTimeoutFrees(t *testing.T) {
	eng := netsim.NewEngine()
	prof := SoftwareProfile()
	prof.BufferSlots = 2
	prof.BufferTimeout = 100 * time.Millisecond
	sw := New(eng, 1, prof)
	sw.SetControlPlane(&fakeController{})
	g := netpkt.NewSpoofGen(5, netpkt.FloodUDP, 0)
	sw.Inject(g.Next(), 1)
	sw.Inject(g.Next(), 1)
	eng.RunFor(10 * time.Millisecond)
	if got := sw.Stats().BufferUsed; got != 2 {
		t.Fatalf("BufferUsed = %d, want 2", got)
	}
	eng.RunFor(time.Second)
	if got := sw.Stats().BufferUsed; got != 0 {
		t.Errorf("BufferUsed after timeout = %d, want 0", got)
	}
}

func TestPortStatusNotifications(t *testing.T) {
	eng, sw, ctl := testSwitch(t)
	sw.AttachPort(4, &sink{}, 1e9, 0)
	eng.RunFor(100 * time.Millisecond)

	var adds, dels []uint16
	for _, f := range ctl.msgs {
		if ps, ok := f.Msg.(openflow.PortStatus); ok {
			switch ps.Reason {
			case openflow.PortAdded:
				adds = append(adds, ps.Port.PortNo)
			case openflow.PortDeleted:
				dels = append(dels, ps.Port.PortNo)
			}
		}
	}
	if len(adds) != 1 || adds[0] != 4 {
		t.Errorf("port-added notifications = %v, want [4]", adds)
	}

	sw.DetachPort(4)
	sw.DetachPort(4) // double detach is a no-op
	eng.RunFor(100 * time.Millisecond)
	dels = nil
	for _, f := range ctl.msgs {
		if ps, ok := f.Msg.(openflow.PortStatus); ok && ps.Reason == openflow.PortDeleted {
			dels = append(dels, ps.Port.PortNo)
		}
	}
	if len(dels) != 1 || dels[0] != 4 {
		t.Errorf("port-deleted notifications = %v, want [4]", dels)
	}

	// Re-attaching an existing port (peer swap) must not re-announce.
	sw.AttachPort(1, &sink{}, 1e9, 0)
	eng.RunFor(100 * time.Millisecond) // deliver the first announcement
	before := len(ctl.msgs)
	sw.AttachPort(1, &sink{}, 1e9, 0)
	eng.RunFor(100 * time.Millisecond)
	for _, f := range ctl.msgs[before:] {
		if _, ok := f.Msg.(openflow.PortStatus); ok {
			t.Error("peer swap re-announced the port")
		}
	}
}

func TestNoPortStatusWithoutController(t *testing.T) {
	eng := netsim.NewEngine()
	sw := New(eng, 1, SoftwareProfile())
	sw.AttachPort(1, &sink{}, 1e9, 0) // before SetControlPlane: silent
	sw.DetachPort(1)
	eng.RunFor(10 * time.Millisecond) // nothing to deliver to; no panic
}

func TestEstimateFrameLen(t *testing.T) {
	p := udpPkt(netpkt.MustMAC("00:00:00:00:00:02"))
	got := estimateFrameLen(&p)
	want := len(p.Marshal())
	if got != want {
		t.Errorf("estimateFrameLen = %d, Marshal len = %d", got, want)
	}
	tiny := netpkt.Packet{EthType: netpkt.EtherTypeLLDP}
	if got := estimateFrameLen(&tiny); got != 60 {
		t.Errorf("minimum frame = %d, want 60", got)
	}
}
