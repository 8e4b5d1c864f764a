package controller

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"floodguard/internal/netpkt"
	"floodguard/internal/netsim"
	"floodguard/internal/openflow"
)

func startServer(t *testing.T) (*TCPServer, string, *netsim.RealTimeRunner) {
	t.Helper()
	eng := netsim.NewEngine()
	runner := netsim.NewRealTimeRunner(eng)
	runner.Start()
	ctrl := New(eng)
	srv := NewTCPServer(ctrl, runner)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		runner.Stop()
	})
	return srv, addr.String(), runner
}

// handshakeAs performs the switch side of the session open.
func handshakeAs(t *testing.T, conn net.Conn, dpid uint64) {
	t.Helper()
	// Server speaks Hello first.
	f, err := openflow.ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Msg.(openflow.Hello); !ok {
		t.Fatalf("expected hello, got %v", f.Msg.MsgType())
	}
	if err := openflow.WriteMessage(conn, 1, openflow.Hello{}); err != nil {
		t.Fatal(err)
	}
	// FeaturesRequest → FeaturesReply.
	f, err = openflow.ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Msg.(openflow.FeaturesRequest); !ok {
		t.Fatalf("expected features_request, got %v", f.Msg.MsgType())
	}
	if err := openflow.WriteMessage(conn, f.XID, openflow.FeaturesReply{
		DatapathID: dpid,
		Ports:      []openflow.PhyPort{{PortNo: 1, Name: "eth1"}},
	}); err != nil {
		t.Fatal(err)
	}
}

func waitSessions(t *testing.T, srv *TCPServer, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(srv.Sessions()) == n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("sessions = %v, want %d", srv.Sessions(), n)
}

func TestTCPServerHandshake(t *testing.T) {
	srv, addr, _ := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	handshakeAs(t, conn, 0x77)
	waitSessions(t, srv, 1)
	if srv.Sessions()[0] != 0x77 {
		t.Errorf("session dpid = %#x", srv.Sessions()[0])
	}
}

func TestTCPServerEchoDuringHandshake(t *testing.T) {
	srv, addr, _ := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Hello first.
	if _, err := openflow.ReadMessage(conn); err != nil {
		t.Fatal(err)
	}
	if err := openflow.WriteMessage(conn, 1, openflow.Hello{}); err != nil {
		t.Fatal(err)
	}
	if _, err := openflow.ReadMessage(conn); err != nil { // features_request
		t.Fatal(err)
	}
	// Interleave an echo before the features reply; the server must
	// answer it and keep waiting.
	if err := openflow.WriteMessage(conn, 9, openflow.EchoRequest{Data: []byte("hb")}); err != nil {
		t.Fatal(err)
	}
	f, err := openflow.ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	if er, ok := f.Msg.(openflow.EchoReply); !ok || string(er.Data) != "hb" {
		t.Fatalf("echo reply = %+v", f.Msg)
	}
	if err := openflow.WriteMessage(conn, 2, openflow.FeaturesReply{DatapathID: 5}); err != nil {
		t.Fatal(err)
	}
	waitSessions(t, srv, 1)
}

func TestTCPServerRejectsNonHelloOpen(t *testing.T) {
	srv, addr, _ := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := openflow.ReadMessage(conn); err != nil { // server hello
		t.Fatal(err)
	}
	// Speak garbage instead of Hello: the server must drop the session.
	if err := openflow.WriteMessage(conn, 1, openflow.BarrierRequest{}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if len(srv.Sessions()) == 0 {
			// Connection must be closed by the server eventually.
			_ = conn.SetReadDeadline(time.Now().Add(time.Second))
			buf := make([]byte, 1)
			if _, err := conn.Read(buf); err != nil {
				return // closed or timed out with no session: pass
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("bad session lingered")
}

func TestTCPServerDisconnectRemovesSession(t *testing.T) {
	srv, addr, _ := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	handshakeAs(t, conn, 0x5)
	waitSessions(t, srv, 1)
	conn.Close()
	waitSessions(t, srv, 0)
}

func TestTCPServerOnConnectHook(t *testing.T) {
	srv, addr, runner := startServer(t)
	var gotDPID uint64
	srv.OnConnect = func(dp Datapath) { gotDPID = dp.DPID() }
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	handshakeAs(t, conn, 0xabc)
	waitSessions(t, srv, 1)
	var seen uint64
	runner.Do(func() { seen = gotDPID })
	if seen != 0xabc {
		t.Errorf("OnConnect dpid = %#x", seen)
	}
}

// TestSendEvictsStalledReader is the dead-peer regression test: a switch
// that handshakes and then stops draining its socket must not wedge the
// controller — once the kernel buffers fill, the write deadline trips,
// the session is evicted, and the disconnect callback fires.
func TestSendEvictsStalledReader(t *testing.T) {
	srv, addr, runner := startServer(t)
	srv.WriteTimeout = 200 * time.Millisecond

	var mu sync.Mutex
	var gone []uint64
	srv.OnDisconnect = func(dpid uint64) {
		mu.Lock()
		gone = append(gone, dpid)
		mu.Unlock()
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	handshakeAs(t, conn, 0x9)
	waitSessions(t, srv, 1)
	dp, ok := srv.Session(0x9)
	if !ok {
		t.Fatal("no session")
	}

	// The client now reads nothing. Spam large frames until the socket
	// buffers fill and the write deadline declares the peer dead.
	payload := make([]byte, 32<<10)
	deadline := time.Now().Add(15 * time.Second)
	for len(srv.Sessions()) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled peer never evicted")
		}
		dp.Send(openflow.Framed{Msg: openflow.EchoRequest{Data: payload}})
	}

	// The eviction must reach the controller and the callback, once.
	waitFor := time.Now().Add(5 * time.Second)
	for time.Now().Before(waitFor) {
		mu.Lock()
		n := len(gone)
		mu.Unlock()
		if n > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(gone) != 1 || gone[0] != 0x9 {
		t.Fatalf("OnDisconnect calls = %v, want exactly [0x9]", gone)
	}
	var inCtrl bool
	runner.Do(func() { _, inCtrl = srv.ctrl.Datapath(0x9) })
	if inCtrl {
		t.Error("controller still lists the evicted datapath")
	}
	// Further Sends on the dead session are harmless no-ops.
	dp.Send(openflow.Framed{Msg: openflow.Hello{}})
}

// TestSendToClosedPeerEvicts covers the half-closed/hung-up peer: after
// the client disappears, Send must observe the write error and the
// session must vanish from both server and controller.
func TestSendToClosedPeerEvicts(t *testing.T) {
	srv, addr, runner := startServer(t)
	srv.WriteTimeout = 500 * time.Millisecond
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	handshakeAs(t, conn, 0x4)
	waitSessions(t, srv, 1)
	dp, _ := srv.Session(0x4)
	conn.Close()

	deadline := time.Now().Add(10 * time.Second)
	for len(srv.Sessions()) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("closed peer never evicted")
		}
		dp.Send(openflow.Framed{Msg: openflow.EchoRequest{Data: []byte("ping")}})
		time.Sleep(time.Millisecond)
	}
	var inCtrl bool
	runner.Do(func() { _, inCtrl = srv.ctrl.Datapath(0x4) })
	if inCtrl {
		t.Error("controller still lists the closed datapath")
	}
}

// TestReconnectReplacesStaleSession: a switch whose old channel is still
// nominally open re-handshakes on a new connection; the fresh session
// must take over the DPID and the stale one must die without evicting it.
func TestReconnectReplacesStaleSession(t *testing.T) {
	srv, addr, runner := startServer(t)
	conn1, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn1.Close()
	handshakeAs(t, conn1, 0x8)
	waitSessions(t, srv, 1)
	old, _ := srv.Session(0x8)

	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	handshakeAs(t, conn2, 0x8)

	// The replacement closes conn1; its pending read surfaces the hangup.
	_ = conn1.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1024)
	for {
		if _, err := conn1.Read(buf); err != nil {
			break
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if sess, ok := srv.Session(0x8); ok && sess != old {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fresh session never took over the DPID")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := len(srv.Sessions()); n != 1 {
		t.Fatalf("sessions = %d, want 1", n)
	}
	// The controller must address the new transport, not the corpse.
	var cur Datapath
	runner.Do(func() { cur, _ = srv.ctrl.Datapath(0x8) })
	fresh, _ := srv.Session(0x8)
	if cur != fresh {
		t.Error("controller datapath is not the fresh session")
	}
}

// readMsg reads the next message the controller sent, failing the test
// if none arrives within five seconds.
func readMsg(t *testing.T, conn net.Conn) openflow.Message {
	t.Helper()
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	f, err := openflow.ReadMessage(conn)
	if err != nil {
		t.Fatalf("read from controller: %v", err)
	}
	return f.Msg
}

// TestTCPEndToEndL2Learning is the one test in which an app behind the
// TCP server answers real packet_ins over a socket: two switches are
// connected at once, each played by hand. On each, a frame for an
// unknown MAC comes back as a flood packet_out, and once the reverse
// direction has been seen, a frame for the learned MAC comes back as a
// flow_mod plus a packet_out carrying the unbuffered frame. Learning is
// per datapath: what the first switch taught the app must not leak into
// the second.
func TestTCPEndToEndL2Learning(t *testing.T) {
	srv, addr, runner := startServer(t)
	app := l2App(0)
	app.PerDatapath = true
	runner.Do(func() { srv.ctrl.Register(app) })

	macA := netpkt.MustMAC("00:00:00:00:00:0a")
	macB := netpkt.MustMAC("00:00:00:00:00:0b")
	flow := netpkt.Flow{
		SrcMAC: macA, DstMAC: macB,
		SrcIP: netpkt.MustIPv4("10.0.0.1"), DstIP: netpkt.MustIPv4("10.0.0.2"),
		Proto: netpkt.ProtoUDP, SrcPort: 1000, DstPort: 2000,
	}
	packetIn := func(conn net.Conn, pkt netpkt.Packet, inPort uint16) []byte {
		frame := pkt.Marshal()
		if err := openflow.WriteMessage(conn, 7, openflow.PacketIn{
			BufferID: openflow.NoBuffer,
			TotalLen: uint16(len(frame)),
			InPort:   inPort,
			Reason:   openflow.ReasonNoMatch,
			Data:     frame,
		}); err != nil {
			t.Fatal(err)
		}
		return frame
	}
	floods := func(m openflow.Message, inPort uint16, frame []byte) {
		t.Helper()
		po, ok := m.(openflow.PacketOut)
		if !ok {
			t.Fatalf("expected packet_out, got %v", m.MsgType())
		}
		if po.InPort != inPort || len(po.Actions) != 1 || po.Actions[0] != openflow.Action(openflow.Output(openflow.PortFlood)) {
			t.Fatalf("packet_out = %+v, want a flood from port %d", po, inPort)
		}
		if !bytes.Equal(po.Data, frame) {
			t.Fatalf("packet_out carries %d bytes, want the %d-byte frame back", len(po.Data), len(frame))
		}
	}

	var conns []net.Conn
	for _, dpid := range []uint64{0x42, 0x43} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		handshakeAs(t, conn, dpid)
		// Controller.Connect greets the registered datapath once more.
		if _, ok := readMsg(t, conn).(openflow.Hello); !ok {
			t.Fatal("expected the controller core's hello")
		}
		if _, ok := readMsg(t, conn).(openflow.FeaturesRequest); !ok {
			t.Fatal("expected the controller core's features_request")
		}
		conns = append(conns, conn)
	}
	waitSessions(t, srv, 2)

	for _, conn := range conns {
		// b speaks first, towards a MAC nobody has seen: flood, and b's
		// MAC is learned on port 2.
		frame := packetIn(conn, flow.Reverse().Packet(64), 2)
		floods(readMsg(t, conn), 2, frame)

		// a -> b: the destination is known now, so the app installs
		// dl_dst=b -> output 2 and forwards the frame it was handed.
		frame = packetIn(conn, flow.Packet(64), 1)
		fm, ok := readMsg(t, conn).(openflow.FlowMod)
		if !ok {
			t.Fatalf("expected flow_mod first")
		}
		want := openflow.Action(openflow.Output(2))
		if fm.Command != openflow.FlowAdd || fm.Match.DlDst != macB || len(fm.Actions) != 1 || fm.Actions[0] != want {
			t.Fatalf("flow_mod = %+v, want add dl_dst=%v -> output:2", fm, macB)
		}
		po, ok := readMsg(t, conn).(openflow.PacketOut)
		if !ok {
			t.Fatalf("expected packet_out after the flow_mod")
		}
		if po.InPort != 1 || len(po.Actions) != 1 || po.Actions[0] != want || !bytes.Equal(po.Data, frame) {
			t.Fatalf("packet_out = %+v, want the frame out of port 2", po)
		}
	}
}

func TestTCPServerCloseUnblocksAccept(t *testing.T) {
	srv, _, _ := startServer(t)
	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung")
	}
}
