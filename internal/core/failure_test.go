package core

import (
	"testing"
	"time"

	"floodguard/internal/appir"
	"floodguard/internal/apps"
	"floodguard/internal/controller"
	"floodguard/internal/netpkt"
	"floodguard/internal/netsim"
	"floodguard/internal/switchsim"
)

// TestTinyTCAMDoesNotBreakDefense injects the failure the paper's §IV.E
// worries about: switch TCAM too small for the proactive rule set. The
// switch answers flow_mods with errors; the guard must stay functional
// (migration still protects the controller) even though coverage is
// partial.
func TestTinyTCAMDoesNotBreakDefense(t *testing.T) {
	eng := netsim.NewEngine()
	prof := switchsim.SoftwareProfile()
	prof.TableCapacity = 5 // room for migration rules and little else
	sw := switchsim.New(eng, 0x1, prof)
	sw.Start()
	defer sw.Stop()

	ctrl := controller.New(eng)
	prog, st := apps.L2Learning()
	// Pre-learn many hosts so the derived rule set overflows the table.
	for i := 1; i <= 40; i++ {
		st.Learn("macToPort", appir.MACValue(netpkt.MACFromUint64(uint64(i))), appir.U16Value(uint16(i%3+1)))
	}
	ctrl.Register(&controller.App{Prog: prog, State: st, CostPerEvent: time.Millisecond})
	attacker := switchsim.NewHost(eng, sw, "m", 3, netpkt.MustMAC("00:00:00:00:00:0c"), netpkt.MustIPv4("10.0.0.3"), 1e9, 0)
	controller.Bind(ctrl, sw)

	cfg := DefaultConfig()
	cfg.Detection.SampleInterval = 50 * time.Millisecond
	guard, err := NewGuard(eng, ctrl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := guard.Protect(sw); err != nil {
		t.Fatal(err)
	}
	if err := guard.Start(); err != nil {
		t.Fatal(err)
	}
	defer guard.Stop()

	fl := switchsim.NewFlooder(attacker, 3, netpkt.FloodUDP, 64)
	fl.Start(300)
	eng.RunFor(2 * time.Second)

	if guard.State() != StateDefense {
		t.Fatalf("state = %v, want defense despite table-full errors", guard.State())
	}
	if sw.Table().Len() > prof.TableCapacity {
		t.Fatalf("table overflowed its capacity: %d > %d", sw.Table().Len(), prof.TableCapacity)
	}
	// Migration still shields the controller.
	if rate := guard.PacketInRate(); rate > 50 {
		t.Errorf("controller packet_in rate = %v despite migration", rate)
	}
	if guard.Cache().Stats().Enqueued == 0 {
		t.Error("cache absorbed nothing")
	}
}

// TestGuardSurvivesCacheQueueOverflow floods harder than the cache can
// hold: drop-oldest must bound memory, conservation must hold, and the
// system must still drain back to Idle.
func TestGuardSurvivesCacheQueueOverflow(t *testing.T) {
	cfg := defaultTestConfig()
	cfg.Cache.QueueCapacity = 50 // tiny
	b := newBed(t, cfg)
	b.flooder.Start(500)
	b.eng.RunFor(3 * time.Second)
	st := b.guard.Cache().Stats()
	if st.Dropped == 0 {
		t.Fatal("expected drops from the tiny queue")
	}
	if st.Backlog > 4*50+1 {
		t.Errorf("backlog %d exceeds queue bounds", st.Backlog)
	}
	if st.Emitted+st.Dropped+uint64(st.Backlog) != st.Enqueued {
		t.Errorf("conservation violated: %d emitted + %d dropped + %d backlog != %d enqueued",
			st.Emitted, st.Dropped, st.Backlog, st.Enqueued)
	}
	b.flooder.Stop()
	b.eng.RunFor(20 * time.Second)
	if b.guard.State() != StateIdle {
		t.Errorf("state = %v, want idle after drain", b.guard.State())
	}
}

// TestDetectorIgnoresShortBenignBurst: a brief legitimate burst (below
// TriggerSamples of sustained signal) must not trip the defense.
func TestDetectorIgnoresShortBenignBurst(t *testing.T) {
	cfg := defaultTestConfig()
	cfg.Detection.TriggerSamples = 4 // demand sustained signal
	b := newBed(t, cfg)

	// One 30-packet burst inside a single sample window.
	f := b.alice
	for i := 0; i < 30; i++ {
		f.Send(netpkt.Flow{
			SrcMAC: b.alice.MAC, DstMAC: netpkt.MACFromUint64(uint64(0x500 + i)),
			SrcIP: b.alice.IP, DstIP: netpkt.IPv4(0x0a000100 + uint32(i)),
			Proto: netpkt.ProtoUDP, SrcPort: uint16(1000 + i), DstPort: 80,
		}.Packet(100))
	}
	b.eng.RunFor(2 * time.Second)
	if b.guard.State() != StateIdle {
		t.Errorf("state = %v; a one-window benign burst tripped the defense", b.guard.State())
	}
	if b.guard.DetectedAttacks() != 0 {
		t.Errorf("DetectedAttacks = %d", b.guard.DetectedAttacks())
	}
}

// TestGuardWithNoAppsStillMigrates: even with zero registered apps (no
// proactive rules derivable), migration alone must protect the
// controller and the FSM must cycle.
func TestGuardWithNoAppsStillMigrates(t *testing.T) {
	eng := netsim.NewEngine()
	sw := switchsim.New(eng, 0x1, switchsim.SoftwareProfile())
	sw.Start()
	defer sw.Stop()
	ctrl := controller.New(eng)
	attacker := switchsim.NewHost(eng, sw, "m", 1, netpkt.MustMAC("00:00:00:00:00:0c"), netpkt.MustIPv4("10.0.0.3"), 1e9, 0)
	controller.Bind(ctrl, sw)
	cfg := DefaultConfig()
	cfg.Detection.SampleInterval = 50 * time.Millisecond
	guard, err := NewGuard(eng, ctrl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := guard.Protect(sw); err != nil {
		t.Fatal(err)
	}
	if err := guard.Start(); err != nil {
		t.Fatal(err)
	}
	defer guard.Stop()

	fl := switchsim.NewFlooder(attacker, 5, netpkt.FloodUDP, 64)
	fl.Start(300)
	eng.RunFor(2 * time.Second)
	if guard.State() != StateDefense {
		t.Fatalf("state = %v", guard.State())
	}
	if guard.Analyzer().InstalledCount() != 0 {
		t.Errorf("proactive rules = %d with no apps", guard.Analyzer().InstalledCount())
	}
	fl.Stop()
	eng.RunFor(60 * time.Second)
	if guard.State() != StateIdle {
		t.Errorf("state = %v, want idle", guard.State())
	}
}
