package core

import (
	"testing"
	"time"

	"floodguard/internal/netpkt"
	"floodguard/internal/switchsim"
)

// selectiveTestConfig arms attribution-driven per-port migration with a
// quiet period long enough to watch ports heal while Defense persists.
func selectiveTestConfig() Config {
	cfg := defaultTestConfig()
	cfg.Detection.QuietPeriod = 3 * time.Second
	cfg.Attribution.Enabled = true
	cfg.Attribution.Selective = true
	// Benign chatter (a handful of pps) must sit safely under the blame
	// floor while the 200 pps floods sail over it.
	cfg.Attribution.Params.SuspectRatePPS = 30
	return cfg
}

func TestSelectiveMigrationDivertsOnlyBlamedPort(t *testing.T) {
	b := newBed(t, selectiveTestConfig())
	b.flooder.Start(200) // mallory on port 3
	b.eng.RunFor(2 * time.Second)

	if got := b.guard.State(); got != StateDefense {
		t.Fatalf("state = %v, want defense", got)
	}
	if !b.guard.PortMigrated(0x1, 3) {
		t.Error("attack port 3 not migrated")
	}
	for _, p := range []uint16{1, 2} {
		if b.guard.PortMigrated(0x1, p) {
			t.Errorf("benign port %d migrated under selective mode", p)
		}
	}
	if got := int(b.guard.gMigratedPorts.Value()); got != 1 {
		t.Errorf("migrated ports = %d, want 1", got)
	}
	// Exactly one port's diversion rules in TCAM, not the blanket three.
	if got := migrationRuleCount(b.sw); got != 1 {
		t.Errorf("priority-1 rules = %d, want 1 (only the blamed port)", got)
	}
}

func TestSelectiveMigrationTransitionsMidDefense(t *testing.T) {
	b := newBed(t, selectiveTestConfig())
	b.flooder.Start(200)
	b.eng.RunFor(2 * time.Second)
	if got := b.guard.State(); got != StateDefense {
		t.Fatalf("state = %v, want defense", got)
	}
	if !b.guard.PortMigrated(0x1, 3) || int(b.guard.gMigratedPorts.Value()) != 1 {
		t.Fatalf("port 3 not the sole migrated port at defense entry")
	}

	// A second attacker appears mid-Defense on bob's port: its packet_ins
	// still reach the controller directly (the port is not diverted), so
	// the blame detector sees them and the reconciliation loop must extend
	// migration to port 2 without touching alice.
	fl2 := switchsim.NewFlooder(b.bob, 99, netpkt.FloodUDP, 64)
	fl2.Start(200)
	b.eng.RunFor(time.Second)
	if b.guard.State() != StateDefense {
		t.Fatalf("state = %v, want defense to persist", b.guard.State())
	}
	if !b.guard.PortMigrated(0x1, 2) {
		t.Error("second attack port 2 not migrated mid-Defense")
	}
	if b.guard.PortMigrated(0x1, 1) {
		t.Error("benign port 1 migrated")
	}
	if got := int(b.guard.gMigratedPorts.Value()); got != 2 {
		t.Errorf("migrated ports = %d, want 2", got)
	}

	// Both floods end. Blame heals after the calm streak and the ports
	// get their direct path back while Defense rides out the quiet
	// period — un-migration must not wait for Finish.
	b.flooder.Stop()
	fl2.Stop()
	b.eng.RunFor(1500 * time.Millisecond)
	if b.guard.State() != StateDefense {
		t.Fatalf("state = %v, want defense during quiet period", b.guard.State())
	}
	for _, p := range []uint16{1, 2, 3} {
		if b.guard.PortMigrated(0x1, p) {
			t.Errorf("port %d still migrated after blame healed", p)
		}
	}
	if got := int(b.guard.gMigratedPorts.Value()); got != 0 {
		t.Errorf("migrated ports = %d, want 0 after healing", got)
	}
	if got := migrationRuleCount(b.sw); got != 0 {
		t.Errorf("priority-1 rules = %d, want 0 after healing", got)
	}

	// Relapse: the attacker returns before the quiet period lapses; the
	// same Defense must re-divert its port.
	b.flooder.Start(200)
	b.eng.RunFor(time.Second)
	if b.guard.State() != StateDefense {
		t.Fatalf("state = %v, want defense", b.guard.State())
	}
	if !b.guard.PortMigrated(0x1, 3) {
		t.Error("relapsed attack port 3 not re-migrated")
	}
	if b.guard.PortMigrated(0x1, 1) || b.guard.PortMigrated(0x1, 2) {
		t.Error("calm port migrated on relapse")
	}
}

func TestSelectiveMigrationFullCycleCleanup(t *testing.T) {
	b := newBed(t, selectiveTestConfig())
	b.flooder.Start(150)
	b.eng.RunFor(2 * time.Second)
	if b.guard.State() != StateDefense {
		t.Fatalf("state = %v, want defense", b.guard.State())
	}
	b.flooder.Stop()
	b.eng.RunFor(30 * time.Second)
	if got := b.guard.State(); got != StateIdle {
		t.Fatalf("state = %v, want idle after drain", got)
	}
	if got := int(b.guard.gMigratedPorts.Value()); got != 0 {
		t.Errorf("migrated ports = %d after idle", got)
	}
	if got := migrationRuleCount(b.sw); got != 0 {
		t.Errorf("priority-1 rules = %d after idle", got)
	}
	// Conservation still holds with the benign/suspect queue split.
	st := b.guard.Cache().Stats()
	if st.Emitted+st.Dropped != st.Enqueued {
		t.Errorf("cache conservation: enqueued %d != emitted %d + dropped %d",
			st.Enqueued, st.Emitted, st.Dropped)
	}
}
