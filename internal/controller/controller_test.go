package controller

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"floodguard/internal/apps"
	"floodguard/internal/netpkt"
	"floodguard/internal/netsim"
	"floodguard/internal/openflow"
	"floodguard/internal/switchsim"
)

func l2App(cost time.Duration) *App {
	prog, st := apps.L2Learning()
	return &App{Prog: prog, State: st, CostPerEvent: cost}
}

func newTestBed(t *testing.T) (*netsim.Engine, *Controller, *switchsim.Switch) {
	t.Helper()
	eng := netsim.NewEngine()
	sw := switchsim.New(eng, 0x1, switchsim.SoftwareProfile())
	sw.Start()
	t.Cleanup(sw.Stop)
	c := New(eng)
	c.BaseCost = 100 * time.Microsecond
	Bind(c, sw)
	return eng, c, sw
}

func TestSessionHandshake(t *testing.T) {
	eng, c, _ := newTestBed(t)
	eng.RunFor(time.Second)
	if len(c.datapaths) != 1 {
		t.Fatalf("datapaths = %d, want 1", len(c.datapaths))
	}
	if _, ok := c.Datapath(0x1); !ok {
		t.Error("datapath 0x1 not registered")
	}
}

func TestL2LearningEndToEnd(t *testing.T) {
	eng, c, sw := newTestBed(t)
	c.Register(l2App(time.Millisecond))

	a := switchsim.NewHost(eng, sw, "a", 1, netpkt.MustMAC("00:00:00:00:00:0a"), netpkt.MustIPv4("10.0.0.1"), 1e9, time.Millisecond)
	b := switchsim.NewHost(eng, sw, "b", 2, netpkt.MustMAC("00:00:00:00:00:0b"), netpkt.MustIPv4("10.0.0.2"), 1e9, time.Millisecond)

	flow := netpkt.Flow{
		SrcMAC: a.MAC, DstMAC: b.MAC, SrcIP: a.IP, DstIP: b.IP,
		Proto: netpkt.ProtoUDP, SrcPort: 1000, DstPort: 2000,
	}

	// b speaks first so the controller learns where b lives.
	b.Send(flow.Reverse().Packet(64))
	eng.RunFor(500 * time.Millisecond)

	// Now a->b: miss -> packet_in -> l2 install -> buffered packet
	// forwarded to b.
	a.Send(flow.Packet(64))
	eng.RunFor(time.Second)
	if b.Received() != 1 {
		t.Fatalf("b received %d, want 1 (first packet forwarded via flow_mod buffer release)", b.Received())
	}
	if sw.Table().Len() == 0 {
		t.Fatal("no rule installed")
	}

	// Subsequent packets ride the installed rule: no new packet_ins.
	before := c.PacketIns()
	for i := 0; i < 10; i++ {
		a.Send(flow.Packet(64))
	}
	eng.RunFor(time.Second)
	if b.Received() != 11 {
		t.Errorf("b received %d, want 11", b.Received())
	}
	if c.PacketIns() != before {
		t.Errorf("matched traffic reached the controller (%d -> %d)", before, c.PacketIns())
	}

	if busy, n := c.apps[0].TakeBusy(), c.flowModsOut.Value(); busy == 0 || n == 0 {
		t.Errorf("app accounting: busy=%v flow_mods=%d", busy, n)
	}
}

func TestUnknownDestinationFloods(t *testing.T) {
	eng, c, sw := newTestBed(t)
	c.Register(l2App(time.Millisecond))

	a := switchsim.NewHost(eng, sw, "a", 1, netpkt.MustMAC("00:00:00:00:00:0a"), netpkt.MustIPv4("10.0.0.1"), 1e9, 0)
	b := switchsim.NewHost(eng, sw, "b", 2, netpkt.MustMAC("00:00:00:00:00:0b"), netpkt.MustIPv4("10.0.0.2"), 1e9, 0)
	cHost := switchsim.NewHost(eng, sw, "c", 3, netpkt.MustMAC("00:00:00:00:00:0c"), netpkt.MustIPv4("10.0.0.3"), 1e9, 0)

	flow := netpkt.Flow{SrcMAC: a.MAC, DstMAC: b.MAC, SrcIP: a.IP, DstIP: b.IP, Proto: netpkt.ProtoUDP, SrcPort: 1, DstPort: 2}
	a.Send(flow.Packet(64))
	eng.RunFor(time.Second)

	// Destination unknown: flooded to b and c, not back to a.
	if b.Received() != 1 || cHost.Received() != 1 {
		t.Errorf("flood deliveries b=%d c=%d, want 1,1", b.Received(), cHost.Received())
	}
	if a.Received() != 0 {
		t.Error("flood returned to the ingress host")
	}
	if sw.Table().Len() != 0 {
		t.Error("flood installed a rule")
	}
}

func TestHookSuppressesDispatch(t *testing.T) {
	eng, c, sw := newTestBed(t)
	c.Register(l2App(time.Millisecond))
	c.AddHook(func(ev *PacketInEvent) bool { return false })

	g := netpkt.NewSpoofGen(1, netpkt.FloodUDP, 64)
	for i := 0; i < 10; i++ {
		sw.Inject(g.Next(), 1)
	}
	eng.RunFor(time.Second)
	if c.PacketIns() != 0 {
		t.Errorf("PacketIns = %d, want 0 (hook suppresses)", c.PacketIns())
	}
	if got := c.suppressed.Value(); got != 10 {
		t.Errorf("suppressed = %d, want 10", got)
	}
	if busy := c.apps[0].TakeBusy(); busy != 0 {
		t.Errorf("app busy %v despite suppression", busy)
	}
}

func TestBusyTimeAccounting(t *testing.T) {
	eng, c, sw := newTestBed(t)
	app := l2App(2 * time.Millisecond)
	c.Register(app)

	g := netpkt.NewSpoofGen(2, netpkt.FloodUDP, 64)
	for i := 0; i < 50; i++ {
		sw.Inject(g.Next(), 1)
	}
	eng.RunFor(2 * time.Second)

	if got := app.TakeBusy(); got != 100*time.Millisecond {
		t.Errorf("TakeBusy = %v, want 100ms (50 events x 2ms)", got)
	}
	if got := app.TakeBusy(); got != 0 {
		t.Errorf("second TakeBusy = %v, want 0", got)
	}
}

func TestSerialExecutorDelaysUnderLoad(t *testing.T) {
	// Two packet_ins arriving together: the second decision lands one
	// app-cost later than the first.
	eng, c, sw := newTestBed(t)
	c.BaseCost = 0
	c.Register(l2App(10 * time.Millisecond))

	// Teach the controller where the destination lives so installs occur.
	// Learn 0a and 0b by sending to an unknown destination (flood, no
	// install).
	learn := netpkt.Packet{
		EthSrc: netpkt.MustMAC("00:00:00:00:00:0b"), EthDst: netpkt.MustMAC("00:00:00:00:00:0f"),
		EthType: netpkt.EtherTypeIPv4, NwSrc: netpkt.MustIPv4("10.0.0.2"), NwDst: netpkt.MustIPv4("10.0.0.15"),
		NwProto: netpkt.ProtoUDP, TpSrc: 9, TpDst: 9,
	}
	sw.Inject(learn, 2)
	learn2 := learn
	learn2.EthSrc = netpkt.MustMAC("00:00:00:00:00:0a")
	sw.Inject(learn2, 1)
	eng.RunFor(time.Second)
	if sw.Table().Len() != 0 {
		t.Fatalf("learning phase installed %d rules", sw.Table().Len())
	}

	var times []time.Duration
	c.AddMessageListener(func(dp Datapath, f openflow.Framed) {})
	// Observe flow_mod arrivals at the switch indirectly via table size.
	p1 := netpkt.Packet{
		EthSrc: netpkt.MustMAC("00:00:00:00:00:0c"), EthDst: netpkt.MustMAC("00:00:00:00:00:0b"),
		EthType: netpkt.EtherTypeIPv4, NwSrc: netpkt.MustIPv4("10.0.0.3"), NwDst: netpkt.MustIPv4("10.0.0.2"),
		NwProto: netpkt.ProtoUDP, TpSrc: 1, TpDst: 1,
	}
	p2 := p1
	p2.EthDst = netpkt.MustMAC("00:00:00:00:00:0a")
	p2.NwDst = netpkt.MustIPv4("10.0.0.1")
	base := eng.Now()
	sw.Inject(p1, 3)
	sw.Inject(p2, 3)
	prev := sw.Table().Len()
	tk := eng.NewTicker(time.Millisecond, func() {
		if n := sw.Table().Len(); n > prev {
			times = append(times, eng.Now().Sub(base))
			prev = n
		}
	})
	eng.RunFor(time.Second)
	tk.Stop()

	if len(times) != 2 {
		t.Fatalf("observed %d installs, want 2", len(times))
	}
	gap := times[1] - times[0]
	if gap < 8*time.Millisecond {
		t.Errorf("second install only %v after first; serial executor not serialising", gap)
	}
}

func TestUnclaimedBufferReleasedAsDrop(t *testing.T) {
	// No apps registered: buffered miss must be released (dropped) so the
	// buffer slot is freed.
	eng, c, sw := newTestBed(t)
	_ = c
	g := netpkt.NewSpoofGen(3, netpkt.FloodUDP, 64)
	sw.Inject(g.Next(), 1)
	eng.RunFor(time.Second)
	if got := sw.Stats().BufferUsed; got != 0 {
		t.Errorf("BufferUsed = %d, want 0 (controller must release unclaimed buffers)", got)
	}
}

func TestMultipleAppsAllSeeEvents(t *testing.T) {
	eng, c, sw := newTestBed(t)
	a1 := l2App(time.Millisecond)
	prog2, st2 := apps.MACBlocker()
	a2 := &App{Prog: prog2, State: st2, CostPerEvent: time.Millisecond}
	c.Register(a1)
	c.Register(a2)

	g := netpkt.NewSpoofGen(4, netpkt.FloodUDP, 64)
	for i := 0; i < 20; i++ {
		sw.Inject(g.Next(), 1)
	}
	eng.RunFor(2 * time.Second)
	if b1, b2 := a1.TakeBusy(), a2.TakeBusy(); b1 != 20*time.Millisecond || b2 != 20*time.Millisecond {
		t.Errorf("busy = %v,%v; every app must see every packet_in (20 x 1ms)", b1, b2)
	}
}

// recordingDatapath is a Datapath that keeps every message sent to it.
type recordingDatapath struct {
	dpid uint64
	sent []openflow.Framed
}

func (d *recordingDatapath) DPID() uint64 { return d.dpid }

func (d *recordingDatapath) Send(f openflow.Framed) { d.sent = append(d.sent, f) }

// take returns the messages sent since the last call.
func (d *recordingDatapath) take() []openflow.Framed {
	out := d.sent
	d.sent = nil
	return out
}

// TestPerDatapathLearningFromWire drives a per-datapath l2_learning app
// on two datapaths at once, handing HandleMessage packet_ins that went
// through the wire codec. On each, a frame for an unknown MAC comes back
// as a flood packet_out, and once the reverse direction has been seen, a
// frame for the learned MAC comes back as a flow_mod plus a packet_out
// carrying the unbuffered frame. Learning is per datapath: what the
// first datapath taught the app must not leak into the second.
func TestPerDatapathLearningFromWire(t *testing.T) {
	eng := netsim.NewEngine()
	c := New(eng)
	app := l2App(0)
	app.PerDatapath = true
	c.Register(app)

	macA := netpkt.MustMAC("00:00:00:00:00:0a")
	macB := netpkt.MustMAC("00:00:00:00:00:0b")
	flow := netpkt.Flow{
		SrcMAC: macA, DstMAC: macB,
		SrcIP: netpkt.MustIPv4("10.0.0.1"), DstIP: netpkt.MustIPv4("10.0.0.2"),
		Proto: netpkt.ProtoUDP, SrcPort: 1000, DstPort: 2000,
	}
	// packetIn hands the controller an unbuffered packet_in decoded from
	// its wire bytes, runs the engine to the decision, and returns the
	// frame and what the datapath was sent.
	packetIn := func(dp *recordingDatapath, pkt netpkt.Packet, inPort uint16) ([]byte, []openflow.Framed) {
		t.Helper()
		frame := pkt.Marshal()
		f, err := openflow.Decode(openflow.Encode(7, openflow.PacketIn{
			BufferID: openflow.NoBuffer,
			TotalLen: uint16(len(frame)),
			InPort:   inPort,
			Reason:   openflow.ReasonNoMatch,
			Data:     frame,
		}))
		if err != nil {
			t.Fatal(err)
		}
		c.HandleMessage(dp, f)
		for eng.Step() {
		}
		return frame, dp.take()
	}

	dps := []*recordingDatapath{{dpid: 0x42}, {dpid: 0x43}}
	for _, dp := range dps {
		c.Connect(dp)
		got := dp.take()
		if len(got) != 2 {
			t.Fatalf("dpid %#x: Connect sent %d messages, want hello + features_request", dp.dpid, len(got))
		}
		if _, ok := got[0].Msg.(openflow.Hello); !ok {
			t.Fatalf("dpid %#x: expected hello, got %v", dp.dpid, got[0].Msg.MsgType())
		}
		if _, ok := got[1].Msg.(openflow.FeaturesRequest); !ok {
			t.Fatalf("dpid %#x: expected features_request, got %v", dp.dpid, got[1].Msg.MsgType())
		}
	}

	// An echo request is answered under its own xid.
	echo, err := openflow.Decode(openflow.Encode(9, openflow.EchoRequest{Data: []byte("hb")}))
	if err != nil {
		t.Fatal(err)
	}
	c.HandleMessage(dps[0], echo)
	if got := dps[0].take(); len(got) != 1 || !reflect.DeepEqual(got[0], openflow.Framed{XID: 9, Msg: openflow.EchoReply{Data: []byte("hb")}}) {
		t.Fatalf("echo request drew %+v, want one echo reply carrying hb under xid 9", got)
	}

	flood := openflow.Action(openflow.Output(openflow.PortFlood))
	toB := openflow.Action(openflow.Output(2))
	for i, dp := range dps {
		// b speaks first, towards a MAC this datapath has not seen: flood,
		// and b's MAC is learned on port 2. On the second datapath the
		// first one has already learned a on port 1, so a flow_mod here
		// would be learning leaking across datapaths.
		frame, got := packetIn(dp, flow.Reverse().Packet(64), 2)
		if len(got) != 1 {
			t.Fatalf("dpid %#x: b's frame drew %d messages, want one flood packet_out", dp.dpid, len(got))
		}
		po, ok := got[0].Msg.(openflow.PacketOut)
		if !ok || po.InPort != 2 || len(po.Actions) != 1 || po.Actions[0] != flood || !bytes.Equal(po.Data, frame) {
			t.Fatalf("dpid %#x: got %+v, want the frame flooded from port 2", dp.dpid, got[0])
		}

		// a -> b: the destination is known now, so the app installs
		// dl_dst=b -> output 2 and forwards the frame it was handed.
		frame, got = packetIn(dp, flow.Packet(64), 1)
		if len(got) != 2 {
			t.Fatalf("dpid %#x: a's frame drew %d messages, want flow_mod + packet_out", dp.dpid, len(got))
		}
		fm, ok := got[0].Msg.(openflow.FlowMod)
		if !ok || fm.Command != openflow.FlowAdd || fm.Match.DlDst != macB || len(fm.Actions) != 1 || fm.Actions[0] != toB {
			t.Fatalf("dpid %#x: got %+v, want flow_mod add dl_dst=%v -> output:2", dp.dpid, got[0], macB)
		}
		po, ok = got[1].Msg.(openflow.PacketOut)
		if !ok || po.InPort != 1 || len(po.Actions) != 1 || po.Actions[0] != toB || !bytes.Equal(po.Data, frame) {
			t.Fatalf("dpid %#x: got %+v, want the frame out of port 2", dp.dpid, got[1])
		}
		for _, other := range dps[:i] {
			if len(other.sent) != 0 {
				t.Fatalf("dpid %#x was sent %d messages for dpid %#x's packet_ins", other.dpid, len(other.sent), dp.dpid)
			}
		}
	}
	if n := len(app.DatapathStates()); n != 2 {
		t.Fatalf("app holds %d datapath states, want 2", n)
	}
}

// TestConnectReplacesSameDPID: a datapath that connects again under its
// DPID takes over the session, so the controller addresses the new
// handle and still counts one datapath.
func TestConnectReplacesSameDPID(t *testing.T) {
	c := New(netsim.NewEngine())
	stale, fresh := &recordingDatapath{dpid: 0x8}, &recordingDatapath{dpid: 0x8}
	c.Connect(stale)
	c.Connect(fresh)
	if dp, ok := c.Datapath(0x8); !ok || dp != fresh {
		t.Fatalf("Datapath(0x8) = %v, want the fresh handle", dp)
	}
	if n := len(c.datapaths); n != 1 {
		t.Fatalf("datapaths = %d, want 1", n)
	}
}
