package core

import (
	"testing"
	"time"

	"floodguard/internal/telemetry"
)

// asyncTestConfig enables the off-engine derivation path with parallel
// Algorithm 2.
func asyncTestConfig() Config {
	cfg := defaultTestConfig()
	cfg.Analyzer.AsyncDerive = true
	cfg.Analyzer.DeriveWorkers = 2
	return cfg
}

// runUntilState advances the simulation in short bursts, yielding real
// time between bursts: the async derivation runs on a real goroutine
// while the engine's virtual clock can outpace it arbitrarily.
func runUntilState(t *testing.T, b *bed, want FSMState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for b.guard.State() != want {
		if time.Now().After(deadline) {
			t.Fatalf("state = %v, want %v", b.guard.State(), want)
		}
		b.eng.RunFor(50 * time.Millisecond)
		time.Sleep(time.Millisecond)
	}
}

// With AsyncDerive the guard must still complete the full Figure 3
// cycle: detect, migrate, derive off the engine goroutine, install via
// the completion poller, defend.
func TestGuardAsyncDeriveDefends(t *testing.T) {
	b := newBed(t, asyncTestConfig())
	b.flooder.Start(200)
	b.eng.RunFor(2 * time.Second)
	runUntilState(t, b, StateDefense)
	if b.guard.DetectedAttacks() != 1 {
		t.Errorf("DetectedAttacks = %d, want 1", b.guard.DetectedAttacks())
	}
	if got := b.guard.Analyzer().InstalledCount(); got < 2 {
		t.Errorf("proactive rules = %d, want >= 2", got)
	}
	if b.guard.Analyzer().Derivations.Value() == 0 {
		t.Error("no derivations recorded")
	}
	if b.guard.deriveCh != nil && b.guard.derivePoll == nil {
		t.Error("in-flight derivation left without a completion poller")
	}
	// The attack subsides; the async guard must still unwind to idle.
	b.flooder.Stop()
	b.eng.RunFor(8 * time.Second)
	runUntilState(t, b, StateIdle)
}

// The async bed must end a defense window with the installed rule set
// the differential dispatcher would produce for the live state: a final
// engine-side sync right after the run is a no-op delta.
func TestGuardAsyncInstalledRulesConverge(t *testing.T) {
	b := newBed(t, asyncTestConfig())
	b.flooder.Start(200)
	b.eng.RunFor(2 * time.Second)
	runUntilState(t, b, StateDefense)

	// The engine is now paused, so app state is frozen. One synchronous
	// sync reconciles any drift since the last tracker tick; a second
	// must be a pure no-op — the async installs left consistent
	// bookkeeping behind.
	an := b.guard.Analyzer()
	tgt := &recordingTarget{}
	if _, _, err := an.Sync([]RuleTarget{tgt}); err != nil {
		t.Fatal(err)
	}
	inst, rem, err := an.Sync([]RuleTarget{tgt})
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
	if _, _, err := an.Sync([]RuleTarget{tgt}); err != nil {
		t.Fatal(err)
	}
	hits0, misses0, _ := an.MemoStats()
	if misses0 == 0 {
		t.Fatal("memoized derivation recorded no misses")
	}
	// Repeat syncs with unchanged state: all hits, no new misses.
	for i := 0; i < 3; i++ {
		if _, _, err := an.Sync([]RuleTarget{tgt}); err != nil {
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

// StartAsync + applyOutcome must be byte-for-byte the same dispatch as
// the one-call SyncScoped.
func TestAnalyzerAsyncOutcomeMatchesSync(t *testing.T) {
	anSync, stSync := l2Analyzer(t, DefaultAnalyzer())
	anAsync, stAsync := l2Analyzer(t, DefaultAnalyzer())
	for b := byte(1); b <= 8; b++ {
		learnMAC(stSync, b, uint16(b))
		learnMAC(stAsync, b, uint16(b))
	}

	syncTgt := &recordingTarget{}
	inst, rem, err := anSync.Sync([]RuleTarget{syncTgt})
	if err != nil {
		t.Fatal(err)
	}

	asyncTgt := &recordingTarget{}
	o := <-anAsync.StartAsync()
	instA, remA, err := anAsync.applyOutcome(o, nil, []RuleTarget{asyncTgt})
	if err != nil {
		t.Fatal(err)
	}
	if inst != instA || rem != remA {
		t.Fatalf("async applied (%d, %d), sync (%d, %d)", instA, remA, inst, rem)
	}
	if len(syncTgt.adds) != len(asyncTgt.adds) {
		t.Fatalf("async dispatched %d adds, sync %d", len(asyncTgt.adds), len(syncTgt.adds))
	}
	if anAsync.LastDeriveDuration <= 0 {
		t.Error("outcome did not carry the derive duration")
	}
	// The tracker bookkeeping was committed: no drift, no re-sync needed.
	if anAsync.NeedsUpdate() {
		t.Error("applyOutcome left the tracker dirty")
	}
}
