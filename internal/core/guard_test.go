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

// bed is the Figure 9 test topology: one switch, a POX-like controller
// running l2_learning, two benign clients and one attacker, plus
// FloodGuard.
type bed struct {
	eng      *netsim.Engine
	ctrl     *controller.Controller
	sw       *switchsim.Switch
	guard    *Guard
	alice    *switchsim.Host
	bob      *switchsim.Host
	attacker *switchsim.Host
	flooder  *switchsim.Flooder
	l2       *controller.App
}

// alicePort is the switch port the test bed attaches alice to.
const alicePort = 1

func newBed(t *testing.T, cfg Config) *bed {
	t.Helper()
	eng := netsim.NewEngine()
	sw := switchsim.New(eng, 0x1, switchsim.SoftwareProfile())
	sw.Start()
	t.Cleanup(sw.Stop)

	ctrl := controller.New(eng)
	ctrl.BaseCost = 200 * time.Microsecond
	prog, st := apps.L2Learning()
	l2 := &controller.App{Prog: prog, State: st, CostPerEvent: time.Millisecond}
	ctrl.Register(l2)

	b := &bed{eng: eng, ctrl: ctrl, sw: sw, l2: l2}
	b.alice = switchsim.NewHost(eng, sw, "alice", alicePort, netpkt.MustMAC("00:00:00:00:00:0a"), netpkt.MustIPv4("10.0.0.1"), 1e9, 100*time.Microsecond)
	b.bob = switchsim.NewHost(eng, sw, "bob", 2, netpkt.MustMAC("00:00:00:00:00:0b"), netpkt.MustIPv4("10.0.0.2"), 1e9, 100*time.Microsecond)
	b.attacker = switchsim.NewHost(eng, sw, "mallory", 3, netpkt.MustMAC("00:00:00:00:00:0c"), netpkt.MustIPv4("10.0.0.3"), 1e9, 100*time.Microsecond)
	b.flooder = switchsim.NewFlooder(b.attacker, 1337, netpkt.FloodUDP, 64)

	controller.Bind(ctrl, sw)
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
	t.Cleanup(guard.Stop)
	b.guard = guard

	// Let the session settle and the hosts introduce themselves so
	// l2_learning knows both (paper: topology discovered before attack).
	eng.RunFor(100 * time.Millisecond)
	b.exchange()
	eng.RunFor(500 * time.Millisecond)
	return b
}

// exchange has alice and bob speak so their MACs are learned.
func (b *bed) exchange() {
	f := netpkt.Flow{
		SrcMAC: b.alice.MAC, DstMAC: b.bob.MAC, SrcIP: b.alice.IP, DstIP: b.bob.IP,
		Proto: netpkt.ProtoUDP, SrcPort: 5000, DstPort: 7000,
	}
	b.alice.Send(f.Packet(100))
	b.bob.Send(f.Reverse().Packet(100))
}

func defaultTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Detection.SampleInterval = 50 * time.Millisecond
	cfg.Detection.TriggerSamples = 2
	cfg.Detection.QuietPeriod = 500 * time.Millisecond
	return cfg
}

func TestGuardStaysIdleWithoutAttack(t *testing.T) {
	b := newBed(t, defaultTestConfig())
	b.eng.RunFor(5 * time.Second)
	if got := b.guard.State(); got != StateIdle {
		t.Errorf("state = %v, want idle (no attack)", got)
	}
	if b.guard.DetectedAttacks() != 0 {
		t.Errorf("DetectedAttacks = %d", b.guard.DetectedAttacks())
	}
	// Dormant: cache emits nothing, no migration rules.
	if b.guard.Cache().Stats().Enqueued != 0 {
		t.Error("cache absorbed packets while idle")
	}
}

func TestGuardDetectsAndDefends(t *testing.T) {
	b := newBed(t, defaultTestConfig())
	b.flooder.Start(200)
	b.eng.RunFor(2 * time.Second)

	if got := b.guard.State(); got != StateDefense {
		t.Fatalf("state = %v, want defense", got)
	}
	if b.guard.DetectedAttacks() != 1 {
		t.Errorf("DetectedAttacks = %d, want 1", b.guard.DetectedAttacks())
	}

	// Migration rules present: one per ingress port (3 hosts), priority 1.
	migration := 0
	for _, e := range b.sw.Table().Entries() {
		if e.Priority == 1 {
			migration++
		}
	}
	if migration != 3 {
		t.Errorf("migration rules = %d, want 3", migration)
	}

	// Proactive rules present for the learned MACs.
	if got := b.guard.Analyzer().InstalledCount(); got < 2 {
		t.Errorf("proactive rules = %d, want >= 2 (alice and bob learned)", got)
	}

	// The flood is absorbed by the cache, not the controller: the
	// controller's data-plane packet_in rate collapses.
	if rate := b.guard.PacketInRate(); rate > 50 {
		t.Errorf("controller packet_in rate during defense = %v, want low", rate)
	}
	if st := b.guard.Cache().Stats(); st.Enqueued == 0 {
		t.Error("cache absorbed nothing")
	}
	if b.guard.MigrationRate() < 100 {
		t.Errorf("migration rate = %v, want ~200", b.guard.MigrationRate())
	}
}

func TestGuardPreservesBenignTrafficDuringAttack(t *testing.T) {
	b := newBed(t, defaultTestConfig())
	b.flooder.Start(200)
	b.eng.RunFor(2 * time.Second) // defense reached, proactive rules in

	// Alice→Bob rides the proactive l2 rule: delivery without queueing
	// behind the flood. (Replayed attack packets are flooded by the app
	// and also reach bob; count only the benign flow.)
	f := netpkt.Flow{
		SrcMAC: b.alice.MAC, DstMAC: b.bob.MAC, SrcIP: b.alice.IP, DstIP: b.bob.IP,
		Proto: netpkt.ProtoUDP, SrcPort: 5001, DstPort: 7001,
	}
	benign := 0
	b.bob.OnReceive = func(pkt netpkt.Packet) {
		if pkt.TpDst == 7001 {
			benign++
		}
	}
	misses := b.sw.Stats().Missed
	for i := 0; i < 20; i++ {
		b.alice.Send(f.Packet(200))
	}
	b.eng.RunFor(time.Second)
	if benign != 20 {
		t.Errorf("bob received %d of 20 benign packets during the attack", benign)
	}
	if got := b.sw.Stats().Missed - misses; got != 0 {
		t.Errorf("benign flow caused %d table misses; proactive rule should cover it", got)
	}
}

func TestGuardLearnsNewFlowViaCacheReplay(t *testing.T) {
	b := newBed(t, defaultTestConfig())
	b.flooder.Start(200)
	b.eng.RunFor(2 * time.Second)

	// A benign flow to a destination l2_learning has NOT learned cannot
	// match any proactive rule. The naive drop solution would lose it;
	// FloodGuard migrates it to the cache, replays it under rate limit,
	// and the app floods it — so it is still delivered and the source is
	// still learned (§IV.C: "some messages that have not been learned by
	// the applications may be useful in the future").
	unknownDst := netpkt.MustMAC("00:00:00:00:00:0e")
	f := netpkt.Flow{
		SrcMAC: b.alice.MAC, DstMAC: unknownDst, SrcIP: b.alice.IP, DstIP: netpkt.MustIPv4("10.0.0.14"),
		Proto: netpkt.ProtoTCP, SrcPort: 4444, DstPort: 8080,
	}
	delivered := 0
	b.bob.OnReceive = func(pkt netpkt.Packet) {
		if pkt.TpDst == 8080 {
			delivered++ // flooded copy reaches bob
		}
	}
	cacheBefore := b.guard.Cache().Stats().Enqueued
	b.alice.Send(f.SYN())
	b.eng.RunFor(3 * time.Second)

	if got := b.guard.Cache().Stats().Enqueued - cacheBefore; got == 0 {
		t.Error("benign unknown-destination packet was not migrated to the cache")
	}
	if delivered == 0 {
		t.Error("benign packet lost: replay did not deliver it")
	}
	// TCP queue isolation: the UDP flood shares the cache but the TCP
	// packet was served from its own round-robin queue.
	if got := b.guard.Cache().Stats().PerQueue[0]; got > 1 {
		t.Errorf("TCP queue backlog = %d, want empty (round-robin isolation)", got)
	}
}

func TestGuardFinishAndDrainBackToIdle(t *testing.T) {
	b := newBed(t, defaultTestConfig())
	b.flooder.Start(150)
	b.eng.RunFor(2 * time.Second)
	if b.guard.State() != StateDefense {
		t.Fatalf("state = %v, want defense", b.guard.State())
	}
	b.flooder.Stop()
	b.eng.RunFor(30 * time.Second) // quiet period + drain at replay rate

	if got := b.guard.State(); got != StateIdle {
		t.Fatalf("state = %v, want idle after drain", got)
	}
	// Full legal cycle recorded.
	trs := b.guard.Transitions()
	want := []FSMState{StateInit, StateDefense, StateFinish, StateIdle}
	if len(trs) != len(want) {
		t.Fatalf("transitions = %v", trs)
	}
	for i, tr := range trs {
		if tr.To != want[i] {
			t.Errorf("transition %d = %v, want %v", i, tr.To, want[i])
		}
	}
	// Migration rules removed.
	for _, e := range b.sw.Table().Entries() {
		if e.Priority == 1 {
			t.Error("migration rule still installed after finish")
		}
	}
	// Every cached packet was replayed (none lost beyond queue drops).
	st := b.guard.Cache().Stats()
	if st.Backlog != 0 {
		t.Errorf("cache backlog = %d after idle", st.Backlog)
	}
	if st.Emitted+st.Dropped != st.Enqueued {
		t.Errorf("cache conservation: enqueued %d != emitted %d + dropped %d",
			st.Enqueued, st.Emitted, st.Dropped)
	}
}

func TestGuardReentersDefenseOnSecondAttack(t *testing.T) {
	b := newBed(t, defaultTestConfig())
	b.flooder.Start(150)
	b.eng.RunFor(2 * time.Second)
	b.flooder.Stop()
	b.eng.RunFor(30 * time.Second)
	if b.guard.State() != StateIdle {
		t.Fatalf("state = %v, want idle", b.guard.State())
	}
	b.flooder.Start(150)
	b.eng.RunFor(2 * time.Second)
	if b.guard.State() != StateDefense {
		t.Errorf("state = %v, want defense on second attack", b.guard.State())
	}
	if b.guard.DetectedAttacks() != 2 {
		t.Errorf("DetectedAttacks = %d, want 2", b.guard.DetectedAttacks())
	}
}

func TestGuardProtocolIndependence(t *testing.T) {
	// Unlike AvantGuard's TCP-only SYN proxy, detection and migration
	// work for TCP, UDP, ICMP and mixed floods alike.
	for _, proto := range []netpkt.FloodProtocol{netpkt.FloodTCP, netpkt.FloodUDP, netpkt.FloodICMP, netpkt.FloodMixed} {
		b := newBed(t, defaultTestConfig())
		b.flooder = switchsim.NewFlooder(b.attacker, 7, proto, 64)
		b.flooder.Start(200)
		b.eng.RunFor(2 * time.Second)
		if got := b.guard.State(); got != StateDefense {
			t.Errorf("%v flood: state = %v, want defense", proto, got)
		}
		b.guard.Stop()
	}
}

func TestSlowAttackDetectedByUtilization(t *testing.T) {
	// An attacker staying under the rate threshold still exhausts the
	// switch buffer; the utilization component must catch it (§IV.C.1:
	// "anomaly-based flooding detection is easy to get around by an
	// attacker who is willing to slowly execute the attack").
	cfg := defaultTestConfig()
	cfg.Detection.RateThresholdPPS = 1000 // rate component neutered
	cfg.Detection.UtilizationThreshold = 0.5

	eng := netsim.NewEngine()
	prof := switchsim.SoftwareProfile()
	prof.BufferSlots = 32
	prof.BufferTimeout = 20 * time.Second // controller is slow to release
	sw := switchsim.New(eng, 0x1, prof)
	sw.Start()
	defer sw.Stop()

	ctrl := controller.New(eng)
	// A deliberately expensive app so buffered packets pile up.
	prog, st := apps.L2Learning()
	ctrl.Register(&controller.App{Prog: prog, State: st, CostPerEvent: 60 * time.Millisecond})
	attacker := switchsim.NewHost(eng, sw, "slow", 1, netpkt.MustMAC("00:00:00:00:00:0c"), netpkt.MustIPv4("10.0.0.3"), 1e9, 0)
	controller.Bind(ctrl, sw)

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
	fl.Start(40) // below the 1000 PPS rate threshold
	eng.RunFor(5 * time.Second)
	if guard.State() == StateIdle {
		t.Errorf("slow attack not detected: state = %v (buffer %d/%d, backlog %v)",
			guard.State(), sw.Stats().BufferUsed, prof.BufferSlots, ctrl.Backlog())
	}
}

func TestRateOnlyDetectorMissesSlowAttack(t *testing.T) {
	// The ablation counterpart: with the utilization component disabled,
	// the same slow attack goes unnoticed.
	cfg := defaultTestConfig()
	cfg.Detection.RateThresholdPPS = 1000
	cfg.Detection.UtilizationThreshold = 0 // disabled

	eng := netsim.NewEngine()
	prof := switchsim.SoftwareProfile()
	prof.BufferSlots = 32
	prof.BufferTimeout = 20 * time.Second
	sw := switchsim.New(eng, 0x1, prof)
	sw.Start()
	defer sw.Stop()
	ctrl := controller.New(eng)
	prog, st := apps.L2Learning()
	ctrl.Register(&controller.App{Prog: prog, State: st, CostPerEvent: 60 * time.Millisecond})
	attacker := switchsim.NewHost(eng, sw, "slow", 1, netpkt.MustMAC("00:00:00:00:00:0c"), netpkt.MustIPv4("10.0.0.3"), 1e9, 0)
	controller.Bind(ctrl, sw)
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
	fl.Start(40)
	eng.RunFor(5 * time.Second)
	if guard.State() != StateIdle {
		t.Errorf("rate-only detector state = %v, expected to miss the slow attack", guard.State())
	}
}

func TestAdaptiveRateLimitBacksOffUnderLoad(t *testing.T) {
	b := newBed(t, defaultTestConfig())
	b.flooder.Start(300)
	b.eng.RunFor(3 * time.Second)
	rate := b.guard.Cache().Rate()
	rl := b.guard.cfg.RateLimit
	if rate < rl.MinPPS || rate > rl.MaxPPS {
		t.Errorf("replay rate %v outside [%v, %v]", rate, rl.MinPPS, rl.MaxPPS)
	}
}

func TestCacheResidentRulesOption(t *testing.T) {
	cfg := defaultTestConfig()
	cfg.Analyzer.RulesInCache = true
	// Damp replay so spoofed-MAC learning does not balloon derivations.
	cfg.RateLimit.MaxPPS = 20
	cfg.Analyzer.Strategy = UpdateEveryN
	cfg.Analyzer.EveryN = 25
	b := newBed(t, cfg)
	b.flooder.Start(200)
	b.eng.RunFor(2 * time.Second)
	if b.guard.State() != StateDefense {
		t.Fatalf("state = %v", b.guard.State())
	}
	// Proactive rules land in the cache's table, not switch TCAM. (The
	// switch still holds the apps' ordinary reactive rules.)
	tbl := b.guard.Cache().RuleTable()
	if tbl == nil || tbl.Len() == 0 {
		t.Fatal("cache rule table empty despite RulesInCache")
	}
	if got := b.guard.Analyzer().InstalledCount(); got == 0 {
		t.Fatal("analyzer installed nothing")
	}

	// Delete bob's reactive l2 rule (as idle timeout eventually would) so
	// benign traffic misses in the switch and is migrated; the cache's
	// resident proactive rule then puts it on the priority lane.
	dp, _ := b.ctrl.Datapath(b.sw.DPID)
	for _, e := range b.sw.Table().Entries() {
		if e.Match.Wildcards&openflow.WildDlDst == 0 && e.Match.DlDst == b.bob.MAC {
			dp.Send(openflow.Framed{Msg: openflow.FlowMod{
				Match: e.Match, Priority: e.Priority, Command: openflow.FlowDeleteStrict, OutPort: openflow.PortNone,
			}})
		}
	}
	b.eng.RunFor(100 * time.Millisecond)
	f := netpkt.Flow{
		SrcMAC: b.alice.MAC, DstMAC: b.bob.MAC, SrcIP: b.alice.IP, DstIP: b.bob.IP,
		Proto: netpkt.ProtoUDP, SrcPort: 5002, DstPort: 7002,
	}
	b.alice.Send(f.Packet(100))
	b.eng.RunFor(2 * time.Second)
	if got := b.guard.Cache().Stats().PriorityServed; got == 0 {
		t.Error("priority lane unused for rule-matching benign traffic")
	}
}

func TestGuardTracksDynamicPolicyChange(t *testing.T) {
	// The Figure 8 flow: during defense, the balancer repartitions; the
	// tracker notices the version bump and refreshes the proactive rules.
	cfg := defaultTestConfig()
	eng := netsim.NewEngine()
	sw := switchsim.New(eng, 0x1, switchsim.SoftwareProfile())
	sw.Start()
	defer sw.Stop()
	ctrl := controller.New(eng)
	balCfg := apps.DefaultIPBalancerConfig()
	prog, st := apps.IPBalancer(balCfg)
	ctrl.Register(&controller.App{Prog: prog, State: st, CostPerEvent: time.Millisecond})
	attacker := switchsim.NewHost(eng, sw, "m", 1, netpkt.MustMAC("00:00:00:00:00:0c"), netpkt.MustIPv4("10.0.0.3"), 1e9, 0)
	switchsim.NewHost(eng, sw, "s1", 2, netpkt.MustMAC("00:00:00:00:00:01"), balCfg.ReplicaHi, 1e9, 0)
	switchsim.NewHost(eng, sw, "s2", 3, netpkt.MustMAC("00:00:00:00:00:02"), balCfg.ReplicaLo, 1e9, 0)
	controller.Bind(ctrl, sw)
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
	fl.Start(200)
	eng.RunFor(2 * time.Second)
	if guard.State() != StateDefense {
		t.Fatalf("state = %v", guard.State())
	}

	rewriteFor := func(srcHighBit bool) (netpkt.IPv4, bool) {
		for _, e := range sw.Table().Entries() {
			if e.Match.NwSrcMaskLen() == 1 && e.Match.NwSrc.HighBit() == srcHighBit {
				for _, a := range e.Actions {
					if set, ok := a.(openflow.ActionSetNwDst); ok {
						return set.IP, true
					}
				}
			}
		}
		return 0, false
	}
	hi, ok := rewriteFor(true)
	if !ok || hi != balCfg.ReplicaHi {
		t.Fatalf("high-half proactive rule rewrite = %v, %t", hi, ok)
	}

	// Repartition: swap the replicas (the §IV.D example).
	st.SetScalar("replicaHi", appir.IPValue(balCfg.ReplicaLo))
	st.SetScalar("replicaLo", appir.IPValue(balCfg.ReplicaHi))
	eng.RunFor(500 * time.Millisecond)

	hi, ok = rewriteFor(true)
	if !ok || hi != balCfg.ReplicaLo {
		t.Errorf("after repartition, high-half rewrite = %v (ok=%t), want %v", hi, ok, balCfg.ReplicaLo)
	}
}

func TestProtectRequiresConnectedDatapath(t *testing.T) {
	eng := netsim.NewEngine()
	ctrl := controller.New(eng)
	sw := switchsim.New(eng, 0x42, switchsim.SoftwareProfile())
	guard, err := NewGuard(eng, ctrl, defaultTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := guard.Protect(sw); err == nil {
		t.Error("Protect on unbound switch succeeded")
	}
}

// TestGuardStopAfterReentryFreezesRate: a Finish→Init re-detection
// restarts the replay-rate controller; once the guard stops, nothing may
// steer the cache rate any more.
func TestGuardStopAfterReentryFreezesRate(t *testing.T) {
	b := newBed(t, defaultTestConfig())
	b.flooder.Start(200)
	b.eng.RunFor(2 * time.Second)
	if got := b.guard.State(); got != StateDefense {
		t.Fatalf("state = %v, want defense", got)
	}
	b.flooder.Stop()
	for i := 0; i < 500 && b.guard.State() != StateFinish; i++ {
		b.eng.RunFor(10 * time.Millisecond)
	}
	if got := b.guard.State(); got != StateFinish {
		t.Fatalf("state = %v, want finish", got)
	}
	b.flooder.Start(200)
	reentered := func() bool {
		for _, tr := range b.guard.Transitions() {
			if tr.From == StateFinish && tr.To == StateInit {
				return true
			}
		}
		return false
	}
	for i := 0; i < 500 && !reentered(); i++ {
		b.eng.RunFor(10 * time.Millisecond)
	}
	if !reentered() {
		t.Fatalf("no finish→init re-detection; transitions %+v", b.guard.Transitions())
	}
	b.guard.Stop()
	c := b.guard.Cache()
	c.SetRate(123)
	b.eng.RunFor(time.Second)
	if got := c.Rate(); got != 123 {
		t.Errorf("cache rate = %v after Stop, want 123 (a replay-rate ticker outlived the guard)", got)
	}
}
