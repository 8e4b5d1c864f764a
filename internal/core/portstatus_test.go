package core

import (
	"testing"
	"time"

	"floodguard/internal/netpkt"
	"floodguard/internal/openflow"
	"floodguard/internal/switchsim"
)

// migrationRuleCount counts the lowest-priority wildcard rules on the
// switch.
func migrationRuleCount(sw *switchsim.Switch) int {
	n := 0
	for _, e := range sw.Table().Entries() {
		if e.Priority == 1 {
			n++
		}
	}
	return n
}

func TestPortAddedMidDefenseGetsMigrationRule(t *testing.T) {
	b := newBed(t, defaultTestConfig())
	b.flooder.Start(200)
	b.eng.RunFor(2 * time.Second)
	if b.guard.State() != StateDefense {
		t.Fatalf("state = %v", b.guard.State())
	}
	if got := migrationRuleCount(b.sw); got != 3 {
		t.Fatalf("migration rules = %d, want 3", got)
	}

	// A new host appears on port 4 mid-defense: the switch emits
	// PortStatus, the agent extends migration coverage.
	carol := switchsim.NewHost(b.eng, b.sw, "carol", 4, netpkt.MustMAC("00:00:00:00:00:0d"), netpkt.MustIPv4("10.0.0.4"), 1e9, 0)
	b.eng.RunFor(200 * time.Millisecond)
	if got := migrationRuleCount(b.sw); got != 4 {
		t.Fatalf("migration rules after port add = %d, want 4", got)
	}

	// Carol's table-miss traffic is migrated (TOS-tagged with port 4),
	// not sent to the controller as raw packet_ins. Pause the flood so
	// the cache delta counts only carol's packets (400ms < quiet
	// period, so the guard stays in Defense).
	b.flooder.Stop()
	b.eng.RunFor(50 * time.Millisecond)
	misses := b.sw.Stats().Missed
	cacheBefore := b.guard.Cache().Stats().Enqueued
	g := netpkt.NewSpoofGen(77, netpkt.FloodUDP, 32)
	for i := 0; i < 10; i++ {
		carol.Send(g.Next())
	}
	b.eng.RunFor(350 * time.Millisecond)
	if b.guard.State() != StateDefense {
		t.Fatalf("state = %v, want still defense", b.guard.State())
	}
	if got := b.sw.Stats().Missed - misses; got != 0 {
		t.Errorf("carol's traffic caused %d raw misses despite migration", got)
	}
	if got := b.guard.Cache().Stats().Enqueued - cacheBefore; got != 10 {
		t.Errorf("cache absorbed %d of carol's packets, want 10", got)
	}
}

func TestPortDeletedMidDefenseDropsItsMigrationRule(t *testing.T) {
	b := newBed(t, defaultTestConfig())
	b.flooder.Start(200)
	b.eng.RunFor(2 * time.Second)
	if got := migrationRuleCount(b.sw); got != 3 {
		t.Fatalf("migration rules = %d, want 3", got)
	}

	b.sw.DetachPort(2) // bob's port goes away
	b.eng.RunFor(200 * time.Millisecond)
	if got := migrationRuleCount(b.sw); got != 2 {
		t.Errorf("migration rules after port delete = %d, want 2", got)
	}

	// A later Finish must not try to delete the stale rule twice (no
	// error message traffic); the remaining rules are removed cleanly.
	b.flooder.Stop()
	b.eng.RunFor(30 * time.Second)
	if got := migrationRuleCount(b.sw); got != 0 {
		t.Errorf("migration rules after finish = %d, want 0", got)
	}
}

func TestPortStatusWhileIdleOnlyTracksInventory(t *testing.T) {
	b := newBed(t, defaultTestConfig())
	switchsim.NewHost(b.eng, b.sw, "dave", 5, netpkt.MustMAC("00:00:00:00:00:0e"), netpkt.MustIPv4("10.0.0.5"), 1e9, 0)
	b.eng.RunFor(200 * time.Millisecond)
	if got := migrationRuleCount(b.sw); got != 0 {
		t.Fatalf("idle guard installed %d migration rules on port add", got)
	}
	// The new port is covered once an attack starts.
	b.flooder.Start(200)
	b.eng.RunFor(2 * time.Second)
	if got := migrationRuleCount(b.sw); got != 4 {
		t.Errorf("migration rules = %d, want 4 (including the new port)", got)
	}
}

func TestCachePortStatusIgnored(t *testing.T) {
	// The cache port's own attachment (and any chatter about it) must
	// never become an ingress migration target.
	b := newBed(t, defaultTestConfig())
	dp, _ := b.ctrl.Datapath(b.sw.DPID)
	_ = dp
	b.flooder.Start(200)
	b.eng.RunFor(2 * time.Second)
	for _, e := range b.sw.Table().Entries() {
		if e.Priority == 1 && e.Match.InPort == b.guard.cfg.CachePort {
			t.Error("migration rule installed for the cache port itself")
		}
	}
	_ = openflow.PortStatus{}
}
