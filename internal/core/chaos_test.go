package core

import (
	"math/rand"
	"testing"
	"time"
)

// TestGuardChaosSoak is the seeded sideband-flap soak: while a flood is
// running, the channel to the data plane cache goes down and comes back
// at pseudo-random (but fully deterministic) times. The guard must ride
// every flap through the Defense↔Degraded edges, shed beyond-budget
// traffic while degraded, recover to Defense after the last heal, and —
// once the attack stops — drain back to Idle with the cache's packet
// conservation intact (nothing lost beyond the drop-oldest policy).
func TestGuardChaosSoak(t *testing.T) {
	const seed = 0xF100D
	cfg := defaultTestConfig()
	cfg.DegradedMaxPPS = 40 // well under the 200pps flood: drops must occur
	b := newBed(t, cfg)

	b.flooder.Start(200)
	b.eng.RunFor(2 * time.Second)
	if got := b.guard.State(); got != StateDefense {
		t.Fatalf("state before chaos = %v, want defense", got)
	}

	// Flap the sideband. The engine is single-threaded and RunFor returns
	// with the virtual clock parked, so calling the guard directly here
	// is the same discipline as an engine event.
	rng := rand.New(rand.NewSource(seed))
	const flaps = 8
	for i := 0; i < flaps; i++ {
		b.guard.SetCacheReachable(false)
		if got := b.guard.State(); got != StateDegraded {
			t.Fatalf("flap %d: state after cut = %v, want degraded", i, got)
		}
		down := 150*time.Millisecond + time.Duration(rng.Intn(400))*time.Millisecond
		b.eng.RunFor(down)
		if got := b.guard.State(); got != StateDegraded {
			t.Fatalf("flap %d: state while down = %v, want degraded (flood ongoing)", i, got)
		}
		b.guard.SetCacheReachable(true)
		if got := b.guard.State(); got != StateDefense {
			t.Fatalf("flap %d: state after heal = %v, want defense", i, got)
		}
		up := 150*time.Millisecond + time.Duration(rng.Intn(400))*time.Millisecond
		b.eng.RunFor(up)
	}

	if got := b.guard.DegradedEntries(); got != flaps {
		t.Errorf("DegradedEntries = %d, want %d", got, flaps)
	}
	if b.guard.DegradedDrops() == 0 {
		t.Error("degraded limiter shed nothing despite a 200pps flood vs a 40pps budget")
	}
	// Every flap is two recorded edges; count them from the history.
	var cuts, heals int
	for _, tr := range b.guard.Transitions() {
		if tr.From == StateDefense && tr.To == StateDegraded {
			cuts++
		}
		if tr.From == StateDegraded && tr.To == StateDefense {
			heals++
		}
	}
	if cuts != flaps || heals != flaps {
		t.Errorf("transition history: %d cuts, %d heals, want %d each", cuts, heals, flaps)
	}

	// Migration must be back after the final heal: the flood is absorbed
	// again and the controller's direct rate collapses.
	b.eng.RunFor(2 * time.Second)
	if rate := b.guard.PacketInRate(); rate > 50 {
		t.Errorf("packet_in rate after recovery = %v, want collapsed (migration restored)", rate)
	}
	migration := 0
	for _, e := range b.sw.Table().Entries() {
		if e.Priority == 1 {
			migration++
		}
	}
	if migration != 3 {
		t.Errorf("migration rules after recovery = %d, want 3", migration)
	}

	// End the attack: the guard must wind down and the cache drain fully.
	b.flooder.Stop()
	b.eng.RunFor(30 * time.Second)
	if got := b.guard.State(); got != StateIdle {
		t.Fatalf("state after attack = %v, want idle", got)
	}
	st := b.guard.Cache().Stats()
	if st.Enqueued == 0 {
		t.Fatal("cache absorbed nothing across the soak")
	}
	// Conservation: every packet that entered the cache was either
	// replayed or shed by the bounded-queue drop-oldest policy.
	if st.Emitted+st.Dropped != st.Enqueued {
		t.Errorf("cache conservation broken: emitted %d + dropped %d != enqueued %d",
			st.Emitted, st.Dropped, st.Enqueued)
	}
	if !b.guard.Cache().Drained() {
		t.Error("cache not drained at idle")
	}
}

// TestGuardChaosSoakDeterministic pins reproducibility: the same seed
// must produce the identical transition history and counters.
func TestGuardChaosSoakDeterministic(t *testing.T) {
	run := func() ([]Transition, uint64, uint64) {
		cfg := defaultTestConfig()
		cfg.DegradedMaxPPS = 40
		b := newBed(t, cfg)
		b.flooder.Start(200)
		b.eng.RunFor(2 * time.Second)
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 4; i++ {
			b.guard.SetCacheReachable(false)
			b.eng.RunFor(100*time.Millisecond + time.Duration(rng.Intn(300))*time.Millisecond)
			b.guard.SetCacheReachable(true)
			b.eng.RunFor(100*time.Millisecond + time.Duration(rng.Intn(300))*time.Millisecond)
		}
		return b.guard.Transitions(), b.guard.DegradedDrops(), b.guard.Replayed()
	}
	tr1, drops1, rep1 := run()
	tr2, drops2, rep2 := run()
	if drops1 != drops2 || rep1 != rep2 {
		t.Errorf("counters diverged across identical seeded runs: drops %d/%d replays %d/%d",
			drops1, drops2, rep1, rep2)
	}
	if len(tr1) != len(tr2) {
		t.Fatalf("transition counts diverged: %d vs %d", len(tr1), len(tr2))
	}
	// Compare the edge sequence, not timestamps: the Init→Defense edge is
	// scheduled after the analyzer's MEASURED wall-clock derive cost (real
	// cost fed into the virtual clock by design), so its At varies by
	// microseconds between runs while everything structural is pinned.
	for i := range tr1 {
		if tr1[i].From != tr2[i].From || tr1[i].To != tr2[i].To {
			t.Errorf("transition %d diverged: %+v vs %+v", i, tr1[i], tr2[i])
		}
	}
}

// TestGuardAttackEndsWhileDegraded covers the Degraded→Finish edge: the
// flood stops while the sideband is still down. The guard must wind
// down without the cache, then finish the drain only after it heals.
func TestGuardAttackEndsWhileDegraded(t *testing.T) {
	cfg := defaultTestConfig()
	b := newBed(t, cfg)
	b.flooder.Start(200)
	b.eng.RunFor(2 * time.Second)
	if got := b.guard.State(); got != StateDefense {
		t.Fatalf("state = %v, want defense", got)
	}
	b.guard.SetCacheReachable(false)
	b.eng.RunFor(200 * time.Millisecond)
	b.flooder.Stop()
	// Quiet period elapses with the controller seeing the flood directly
	// (degraded), so the score-only attack-over logic must fire.
	b.eng.RunFor(5 * time.Second)
	if got := b.guard.State(); got != StateFinish {
		t.Fatalf("state after quiet while degraded = %v, want finish", got)
	}
	// The cache cannot drain while unreachable.
	b.eng.RunFor(5 * time.Second)
	if got := b.guard.State(); got != StateFinish {
		t.Fatalf("state with sideband down = %v, want finish (drain blocked)", got)
	}
	b.guard.SetCacheReachable(true)
	b.eng.RunFor(30 * time.Second)
	if got := b.guard.State(); got != StateIdle {
		t.Fatalf("state after heal = %v, want idle (drained)", got)
	}
	st := b.guard.Cache().Stats()
	if st.Emitted+st.Dropped != st.Enqueued {
		t.Errorf("cache conservation broken: emitted %d + dropped %d != enqueued %d",
			st.Emitted, st.Dropped, st.Enqueued)
	}
}

// TestGuardDetectsWhileCacheUnreachable: an attack that begins with the
// sideband already down must still be detected, and Defense is entered
// directly degraded (no migration to a cache nobody can reach).
func TestGuardDetectsWhileCacheUnreachable(t *testing.T) {
	cfg := defaultTestConfig()
	cfg.DegradedMaxPPS = 40
	b := newBed(t, cfg)
	b.guard.SetCacheReachable(false)
	b.flooder.Start(200)
	b.eng.RunFor(2 * time.Second)
	if got := b.guard.State(); got != StateDegraded {
		t.Fatalf("state = %v, want degraded (cache down at detection)", got)
	}
	if b.guard.DetectedAttacks() != 1 {
		t.Errorf("DetectedAttacks = %d, want 1", b.guard.DetectedAttacks())
	}
	// No migration rules: nothing may point at the unreachable cache.
	for _, e := range b.sw.Table().Entries() {
		if e.Priority == 1 {
			t.Fatal("migration rule installed while cache unreachable")
		}
	}
	if b.guard.Cache().Stats().Enqueued != 0 {
		t.Error("cache absorbed packets while unreachable")
	}
	if b.guard.DegradedDrops() == 0 {
		t.Error("degraded limiter shed nothing")
	}
	// Healing mid-attack upgrades to full Defense with migration.
	b.guard.SetCacheReachable(true)
	b.eng.RunFor(time.Second)
	if got := b.guard.State(); got != StateDefense {
		t.Fatalf("state after heal = %v, want defense", got)
	}
	migration := 0
	for _, e := range b.sw.Table().Entries() {
		if e.Priority == 1 {
			migration++
		}
	}
	if migration != 3 {
		t.Errorf("migration rules after heal = %d, want 3", migration)
	}
}

// TestGuardHealDuringInitMigrates: a sideband heal that lands while the
// analyzer is still deriving (Init) must arm migration, so Defense opens
// with the flood diverted into the cache rather than reaching the
// controller directly.
func TestGuardHealDuringInitMigrates(t *testing.T) {
	cfg := defaultTestConfig()
	cfg.Analyzer.ModeledDeriveLatency = 300 * time.Millisecond
	b := newBed(t, cfg)
	b.guard.SetCacheReachable(false)
	b.flooder.Start(200)
	for i := 0; i < 200 && b.guard.State() != StateInit; i++ {
		b.eng.RunFor(10 * time.Millisecond)
	}
	if got := b.guard.State(); got != StateInit {
		t.Fatalf("state = %v, want init", got)
	}
	b.guard.SetCacheReachable(true)
	b.eng.RunFor(time.Second)
	if got := b.guard.State(); got != StateDefense {
		t.Fatalf("state = %v, want defense", got)
	}
	if !b.guard.PortMigrated(0x1, 3) {
		t.Error("attack port 3 not migrated after a heal during Init")
	}
	if b.guard.Cache().Stats().Enqueued == 0 {
		t.Error("cache absorbed nothing after a heal during Init")
	}
}
