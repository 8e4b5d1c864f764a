package core

import (
	"testing"
	"time"

	"floodguard/internal/telemetry"
)

// A defense window must end with the installed rule set the
// differential dispatcher would produce for the live state: a final
// sync right after the run is a no-op delta.
func TestGuardInstalledRulesConverge(t *testing.T) {
	b := newBed(t, defaultTestConfig())
	b.flooder.Start(200)
	b.eng.RunFor(3 * time.Second)
	if b.guard.State() != StateDefense {
		t.Fatalf("state = %v, want defense", b.guard.State())
	}

	// The engine is now paused, so app state is frozen. One sync
	// reconciles any drift since the last tracker tick; a second must be
	// a pure no-op — the tracker's persistent desired set left
	// consistent bookkeeping behind.
	an := b.guard.Analyzer()
	tgt := &recordingTarget{}
	if _, _, err := an.SyncScoped(nil, []RuleTarget{tgt}); err != nil {
		t.Fatal(err)
	}
	inst, rem, err := an.SyncScoped(nil, []RuleTarget{tgt})
	if err != nil {
		t.Fatal(err)
	}
	if inst != 0 || rem != 0 {
		t.Errorf("repeat sync on frozen state = (%d, %d), want (0, 0)", inst, rem)
	}
	if n := an.InstalledCount(); n < 2 {
		t.Errorf("installed rules = %d, want >= 2 (alice and bob learned)", n)
	}
}

// The tracker must serve warm syncs from the epoch memo, and the memo
// counters must surface through the registry.
func TestGuardTrackerHitsMemo(t *testing.T) {
	b := newBed(t, defaultTestConfig())
	reg := telemetry.NewRegistry()
	b.guard.Instrument(reg)

	b.flooder.Start(200)
	b.eng.RunFor(3 * time.Second)
	if b.guard.State() != StateDefense {
		t.Fatal("never reached defense")
	}

	an := b.guard.Analyzer()
	// The engine is paused, so state is frozen; one settling sync
	// absorbs any drift since the tracker's last tick.
	tgt := &recordingTarget{}
	if _, _, err := an.SyncScoped(nil, []RuleTarget{tgt}); err != nil {
		t.Fatal(err)
	}
	hits0, misses0, _ := an.MemoStats()
	if misses0 == 0 {
		t.Fatal("memoized derivation recorded no misses")
	}
	// Repeat syncs with unchanged state: all hits, no new misses.
	for i := 0; i < 3; i++ {
		if _, _, err := an.SyncScoped(nil, []RuleTarget{tgt}); err != nil {
			t.Fatal(err)
		}
	}
	hits1, misses1, _ := an.MemoStats()
	if misses1 != misses0 {
		t.Errorf("warm syncs re-solved paths: misses %d -> %d", misses0, misses1)
	}
	if hits1 <= hits0 {
		t.Errorf("warm syncs did not hit the memo: hits %d -> %d", hits0, hits1)
	}

	snap := reg.Snapshot()
	var sawHits, sawHisto bool
	for _, m := range snap.Metrics {
		switch m.Name {
		case "fg_analyzer_memo_hits_total":
			sawHits = uint64(m.Value) == hits1
		case "fg_derive_seconds":
			sawHisto = m.Count > 0
		}
	}
	if !sawHits {
		t.Error("fg_analyzer_memo_hits_total missing or stale in registry snapshot")
	}
	if !sawHisto {
		t.Error("fg_derive_seconds recorded no observations")
	}
}
