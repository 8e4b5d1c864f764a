package core

import (
	"testing"
	"time"

	"floodguard/internal/appir"
	"floodguard/internal/apps"
	"floodguard/internal/controller"
	"floodguard/internal/netpkt"
	"floodguard/internal/netsim"
	"floodguard/internal/openflow"
	"floodguard/internal/switchsim"
)

// TestMultiSwitchPerDatapathDefense exercises the §IV.E deployment shape:
// two patched switches under one controller and one shared data plane
// cache, with l2_learning instantiated per datapath (as POX does). The
// analyzer must derive per-switch proactive rules that reference each
// switch's OWN ports.
func TestMultiSwitchPerDatapathDefense(t *testing.T) {
	eng := netsim.NewEngine()
	s1 := switchsim.New(eng, 1, switchsim.SoftwareProfile())
	s2 := switchsim.New(eng, 2, switchsim.SoftwareProfile())
	s1.Start()
	s2.Start()
	defer s1.Stop()
	defer s2.Stop()

	// a on s1 port 1; b on s2 port 1; patch on port 2 of both.
	a := switchsim.NewHost(eng, s1, "a", 1, netpkt.MustMAC("00:00:00:00:00:0a"), netpkt.MustIPv4("10.0.0.1"), 1e9, 0)
	b := switchsim.NewHost(eng, s2, "b", 1, netpkt.MustMAC("00:00:00:00:00:0b"), netpkt.MustIPv4("10.0.0.2"), 1e9, 0)
	mal := switchsim.NewHost(eng, s2, "m", 3, netpkt.MustMAC("00:00:00:00:00:0c"), netpkt.MustIPv4("10.0.0.3"), 1e9, 0)
	switchsim.Patch(s1, 2, s2, 2, 10e9, 50*time.Microsecond)

	ctrl := controller.New(eng)
	ctrl.BaseCost = 100 * time.Microsecond
	prog, st := apps.L2Learning()
	l2 := &controller.App{Prog: prog, State: st, CostPerEvent: time.Millisecond, PerDatapath: true}
	ctrl.Register(l2)
	controller.Bind(ctrl, s1, s2)

	cfg := DefaultConfig()
	cfg.Detection.SampleInterval = 50 * time.Millisecond
	cfg.Detection.TriggerSamples = 2
	guard, err := NewGuard(eng, ctrl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sw := range []*switchsim.Switch{s1, s2} {
		if err := guard.Protect(sw); err != nil {
			t.Fatal(err)
		}
	}
	if err := guard.Start(); err != nil {
		t.Fatal(err)
	}
	defer guard.Stop()
	eng.RunFor(200 * time.Millisecond)

	// a and b exchange: each switch's l2 instance learns both MACs with
	// its own port numbering.
	flow := netpkt.Flow{
		SrcMAC: a.MAC, DstMAC: b.MAC, SrcIP: a.IP, DstIP: b.IP,
		Proto: netpkt.ProtoUDP, SrcPort: 5000, DstPort: 7000,
	}
	a.Send(flow.Packet(100))
	eng.RunFor(500 * time.Millisecond)
	b.Send(flow.Reverse().Packet(100))
	eng.RunFor(time.Second)
	if b.Received() == 0 || a.Received() == 0 {
		t.Fatalf("warm-up exchange failed: a=%d b=%d", a.Received(), b.Received())
	}

	// Attack from s2.
	fl := switchsim.NewFlooder(mal, 11, netpkt.FloodUDP, 64)
	fl.Start(300)
	eng.RunFor(2 * time.Second)
	if guard.State() != StateDefense {
		t.Fatalf("state = %v, want defense", guard.State())
	}

	// Per-switch proactive rules must carry each switch's own port map:
	// on s1, b is reachable via the patch (port 2); on s2, b is local
	// (port 1).
	wantPort := map[uint64]uint16{1: 2, 2: 1}
	for _, sw := range []*switchsim.Switch{s1, s2} {
		found := false
		for _, e := range sw.Table().Entries() {
			if e.Match.Wildcards&openflow.WildDlDst != 0 || e.Match.DlDst != b.MAC {
				continue
			}
			if len(e.Actions) == 0 {
				continue
			}
			out, ok := e.Actions[0].(openflow.ActionOutput)
			if !ok {
				continue
			}
			found = true
			if out.Port != wantPort[sw.DPID] {
				t.Errorf("switch %d: rule for b outputs to %d, want %d", sw.DPID, out.Port, wantPort[sw.DPID])
			}
		}
		if !found {
			t.Errorf("switch %d: no proactive rule for b", sw.DPID)
		}
	}

	// Benign cross-switch traffic still flows during the attack.
	before := b.Received()
	for i := 0; i < 10; i++ {
		a.Send(flow.Packet(100))
	}
	eng.RunFor(time.Second)
	if got := b.Received() - before; got < 10 {
		t.Errorf("b received %d of 10 cross-switch packets during attack", got)
	}

	// The shared cache absorbed s2's flood, tagged with its origin.
	if guard.Cache().Stats().Enqueued == 0 {
		t.Error("shared cache absorbed nothing")
	}

	// Both switches carry migration rules while defending.
	for _, sw := range []*switchsim.Switch{s1, s2} {
		migration := 0
		for _, e := range sw.Table().Entries() {
			if e.Priority == 1 {
				migration++
			}
		}
		if migration == 0 {
			t.Errorf("switch %d has no migration rules", sw.DPID)
		}
	}
}

func TestProtectRejectsDPIDZero(t *testing.T) {
	eng := netsim.NewEngine()
	sw := switchsim.New(eng, 0, switchsim.SoftwareProfile())
	ctrl := controller.New(eng)
	controller.Bind(ctrl, sw)
	guard, err := NewGuard(eng, ctrl, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := guard.Protect(sw); err == nil {
		t.Error("Protect accepted datapath id 0 (reserved for shared scope)")
	}
}

func TestPerDatapathStateIsolation(t *testing.T) {
	prog, st := apps.L2Learning()
	app := &controller.App{Prog: prog, State: st, PerDatapath: true}
	s1 := app.StateFor(1)
	s2 := app.StateFor(2)
	if s1 == s2 {
		t.Fatal("datapaths share state despite PerDatapath")
	}
	s1.Learn("macToPort", macVal(0xaa), portVal(1))
	if s2.Contains("macToPort", macVal(0xaa)) {
		t.Error("learning on dp1 leaked into dp2")
	}
	if app.State.Contains("macToPort", macVal(0xaa)) {
		t.Error("learning on dp1 leaked into the template state")
	}
	// Idempotent.
	if app.StateFor(1) != s1 {
		t.Error("StateFor not stable")
	}
}

func macVal(b byte) appir.Value    { return appir.MACValue(netpkt.MACFromUint64(uint64(b))) }
func portVal(p uint16) appir.Value { return appir.U16Value(p) }
