package core

import (
	"errors"
	"slices"
	"strconv"
	"testing"
	"time"

	"floodguard/internal/appir"
	"floodguard/internal/apps"
	"floodguard/internal/controller"
	"floodguard/internal/flowtable"
	"floodguard/internal/netpkt"
	"floodguard/internal/openflow"
)

// recordingTarget captures dispatched flow_mods.
type recordingTarget struct {
	adds    []openflow.FlowMod
	deletes []openflow.FlowMod
}

var t0 = time.Date(2015, 6, 22, 0, 0, 0, 0, time.UTC)

func (r *recordingTarget) InstallProactive(fm openflow.FlowMod) error {
	if fm.Command == openflow.FlowDeleteStrict {
		r.deletes = append(r.deletes, fm)
		return nil
	}
	r.adds = append(r.adds, fm)
	return nil
}

func l2Analyzer(t testing.TB, cfg AnalyzerConfig) (*Analyzer, *appir.State) {
	t.Helper()
	prog, st := apps.L2Learning()
	app := &controller.App{Prog: prog, State: st}
	an, err := NewAnalyzer(cfg, []*controller.App{app})
	if err != nil {
		t.Fatal(err)
	}
	if err := an.Prepare(); err != nil {
		t.Fatal(err)
	}
	return an, st
}

func learnMAC(st *appir.State, b byte, port uint16) {
	st.Learn("macToPort", appir.MACValue(netpkt.MACFromUint64(uint64(b))), appir.U16Value(port))
}

func TestAnalyzerSyncIsDifferential(t *testing.T) {
	an, st := l2Analyzer(t, DefaultAnalyzer())
	tgt := &recordingTarget{}
	learnMAC(st, 1, 1)
	learnMAC(st, 2, 2)

	inst, rem, err := an.SyncScoped(nil, []RuleTarget{tgt})
	if err != nil {
		t.Fatal(err)
	}
	if inst != 2 || rem != 0 {
		t.Fatalf("first sync = (%d, %d), want (2, 0)", inst, rem)
	}

	// No change: no traffic.
	inst, rem, err = an.SyncScoped(nil, []RuleTarget{tgt})
	if err != nil {
		t.Fatal(err)
	}
	if inst != 0 || rem != 0 {
		t.Errorf("idempotent sync = (%d, %d), want (0, 0)", inst, rem)
	}

	// One addition, one removal: exactly one add + one delete dispatched.
	learnMAC(st, 3, 3)
	st.Unlearn("macToPort", appir.MACValue(netpkt.MACFromUint64(1)))
	addsBefore, delsBefore := len(tgt.adds), len(tgt.deletes)
	inst, rem, err = an.SyncScoped(nil, []RuleTarget{tgt})
	if err != nil {
		t.Fatal(err)
	}
	if inst != 1 || rem != 1 {
		t.Errorf("delta sync = (%d, %d), want (1, 1)", inst, rem)
	}
	if len(tgt.adds)-addsBefore != 1 || len(tgt.deletes)-delsBefore != 1 {
		t.Errorf("dispatched %d adds, %d deletes", len(tgt.adds)-addsBefore, len(tgt.deletes)-delsBefore)
	}
	if an.InstalledCount() != 2 {
		t.Errorf("InstalledCount = %d, want 2", an.InstalledCount())
	}
}

func TestAnalyzerSyncUpdatesChangedActions(t *testing.T) {
	an, st := l2Analyzer(t, DefaultAnalyzer())
	tgt := &recordingTarget{}
	learnMAC(st, 1, 1)
	if _, _, err := an.SyncScoped(nil, []RuleTarget{tgt}); err != nil {
		t.Fatal(err)
	}
	// Same MAC moves to a different port: same match, new action.
	learnMAC(st, 1, 7)
	inst, rem, err := an.SyncScoped(nil, []RuleTarget{tgt})
	if err != nil {
		t.Fatal(err)
	}
	if inst != 1 || rem != 0 {
		t.Errorf("action-change sync = (%d, %d), want (1, 0) overwrite", inst, rem)
	}
	last := tgt.adds[len(tgt.adds)-1]
	if got := last.Actions[0].(openflow.ActionOutput).Port; got != 7 {
		t.Errorf("updated rule outputs to %d, want 7", got)
	}
}

func TestNeedsUpdateStrategies(t *testing.T) {
	t.Run("every-change", func(t *testing.T) {
		an, st := l2Analyzer(t, AnalyzerConfig{Strategy: UpdateEveryChange})
		if _, err := an.DeriveAll(); err != nil {
			t.Fatal(err)
		}
		if an.NeedsUpdate() {
			t.Error("NeedsUpdate true with no changes")
		}
		learnMAC(st, 1, 1)
		if !an.NeedsUpdate() {
			t.Error("NeedsUpdate false after one change")
		}
	})
	t.Run("every-n", func(t *testing.T) {
		an, st := l2Analyzer(t, AnalyzerConfig{Strategy: UpdateEveryN, EveryN: 3})
		if _, err := an.DeriveAll(); err != nil {
			t.Fatal(err)
		}
		learnMAC(st, 1, 1)
		learnMAC(st, 2, 2)
		if an.NeedsUpdate() {
			t.Error("NeedsUpdate true after 2 of 3 changes")
		}
		learnMAC(st, 3, 3)
		if !an.NeedsUpdate() {
			t.Error("NeedsUpdate false after 3 changes")
		}
		if _, err := an.DeriveAll(); err != nil {
			t.Fatal(err)
		}
		if an.NeedsUpdate() {
			t.Error("NeedsUpdate true after re-derivation")
		}
	})
	// §IV.D's accuracy / overhead trade-off (abl-update): 200 learns,
	// the tracker polled after every pollEvery-th. The interval strategy
	// is every-change polled on the tracker's ticker, here every 10th
	// change. lag is how far the installed rules trail the learned
	// entries right after a poll.
	t.Run("ablation", func(t *testing.T) {
		legs := []struct {
			name      string
			cfg       AnalyzerConfig
			pollEvery int
			maxLag    int
		}{
			{"every-change", AnalyzerConfig{Strategy: UpdateEveryChange}, 1, 0},
			{"interval", AnalyzerConfig{Strategy: UpdateEveryChange}, 10, 0},
			{"every-20", AnalyzerConfig{Strategy: UpdateEveryN, EveryN: 20}, 1, 19},
		}
		derivations := make([]uint64, len(legs))
		for l, leg := range legs {
			an, st := l2Analyzer(t, leg.cfg)
			tgt := []RuleTarget{&recordingTarget{}}
			if _, _, err := an.SyncScoped(nil, tgt); err != nil {
				t.Fatal(err)
			}
			maxLag := 0
			for i := 1; i <= 200; i++ {
				learnMAC(st, byte(i), uint16(i%8+1))
				if i%leg.pollEvery != 0 {
					continue
				}
				if an.NeedsUpdate() {
					if _, _, err := an.SyncScoped(nil, tgt); err != nil {
						t.Fatal(err)
					}
				}
				maxLag = max(maxLag, i-an.InstalledCount())
			}
			derivations[l] = an.Derivations.Value()
			t.Logf("%s: %d derivations, installed rules trail by up to %d after a poll",
				leg.name, derivations[l], maxLag)
			if maxLag != leg.maxLag {
				t.Errorf("%s: installed rules trail by up to %d after a poll, want %d", leg.name, maxLag, leg.maxLag)
			}
		}
		if !(derivations[0] > derivations[1] && derivations[1] > derivations[2]) {
			t.Errorf("derivations every-change %d, interval %d, every-20 %d: want strictly decreasing",
				derivations[0], derivations[1], derivations[2])
		}
	})
}

func TestAnalyzerStateSensitiveReport(t *testing.T) {
	progs, states := apps.EvaluationSet()
	var capps []*controller.App
	for i := range progs {
		capps = append(capps, &controller.App{Prog: progs[i], State: states[i]})
	}
	an, err := NewAnalyzer(DefaultAnalyzer(), capps)
	if err != nil {
		t.Fatal(err)
	}
	if err := an.Prepare(); err != nil {
		t.Fatal(err)
	}
	report := an.StateSensitiveReport()
	if len(report) != 5 {
		t.Fatalf("report covers %d apps", len(report))
	}
	found := false
	for _, v := range report["l2_learning"] {
		if v == "macToPort" {
			found = true
		}
	}
	if !found {
		t.Errorf("l2_learning report = %v, want macToPort", report["l2_learning"])
	}
}

func TestAnalyzerDeriveDurationRecorded(t *testing.T) {
	an, st := l2Analyzer(t, DefaultAnalyzer())
	for i := 1; i <= 50; i++ {
		learnMAC(st, byte(i), uint16(i%8+1))
	}
	if _, err := an.DeriveAll(); err != nil {
		t.Fatal(err)
	}
	if an.LastDeriveDuration <= 0 {
		t.Error("LastDeriveDuration not recorded")
	}
	if an.LastDeriveDuration > time.Second {
		t.Errorf("derivation took %v for 50 entries; suspicious", an.LastDeriveDuration)
	}
}

func TestTableTargetRespectsCapacity(t *testing.T) {
	tbl := flowtable.New(1)
	tgt := tableTarget{tbl: tbl, now: func() time.Time { return t0 }}
	p1 := netpkt.Packet{EthType: netpkt.EtherTypeIPv4, NwDst: netpkt.MustIPv4("10.0.0.1"), NwProto: netpkt.ProtoUDP}
	p2 := netpkt.Packet{EthType: netpkt.EtherTypeIPv4, NwDst: netpkt.MustIPv4("10.0.0.2"), NwProto: netpkt.ProtoUDP}
	if err := tgt.InstallProactive(openflow.FlowMod{Match: openflow.ExactFrom(&p1, 1), Command: openflow.FlowAdd, Priority: 5}); err != nil {
		t.Errorf("install into an empty table: %v", err)
	}
	err := tgt.InstallProactive(openflow.FlowMod{Match: openflow.ExactFrom(&p2, 1), Command: openflow.FlowAdd, Priority: 5})
	if !errors.Is(err, flowtable.ErrTableFull) {
		t.Errorf("install into a full table = %v, want ErrTableFull", err)
	}
	if tbl.Len() != 1 {
		t.Errorf("table len = %d, want 1 (capacity respected, overflow dropped)", tbl.Len())
	}
}

// learnedAnalyzer returns an l2_learning analyzer with n MACs learned
// and their rules synced to a recording target.
func learnedAnalyzer(t testing.TB, n int) (*Analyzer, *appir.State, *recordingTarget) {
	t.Helper()
	an, st := l2Analyzer(t, DefaultAnalyzer())
	for i := 1; i <= n; i++ {
		st.Learn("macToPort", appir.MACValue(netpkt.MACFromUint64(uint64(i))), appir.U16Value(uint16(i%8+1)))
	}
	tgt := &recordingTarget{}
	if inst, _, err := an.SyncScoped(nil, []RuleTarget{tgt}); err != nil || inst != n {
		t.Fatalf("initial sync installed %d of %d rules, err %v", inst, n, err)
	}
	return an, st, tgt
}

// One tracker tick pays for what changed: with 2 000 rules installed, one
// more learned MAC costs one entry through the solver and one flow_mod,
// and the tick allocates exactly as much as it does at 200.
func TestTrackerTickSolvesOnlyDelta(t *testing.T) {
	next := uint64(1 << 20)
	// Each run learns one key and unlearns it again, two ticks. After
	// AllocsPerRun's warm-up run no map or slice on the path grows any
	// more, so no amortized growth hides in the truncated mean and the
	// two sizes must agree exactly.
	tickAllocs := func(n int) float64 {
		an, st, tgt := learnedAnalyzer(t, n)
		targets := []RuleTarget{tgt}
		key := appir.MACValue(netpkt.MACFromUint64(next))
		return testing.AllocsPerRun(20, func() {
			tgt.adds, tgt.deletes = tgt.adds[:0], tgt.deletes[:0]
			st.Learn("macToPort", key, appir.U16Value(3))
			if inst, rem, err := an.SyncScoped(nil, targets); err != nil || inst != 1 || rem != 0 {
				t.Fatalf("learn tick at %d rules = (%d, %d, %v), want (1, 0, nil)", n, inst, rem, err)
			}
			st.Unlearn("macToPort", key)
			if inst, rem, err := an.SyncScoped(nil, targets); err != nil || inst != 0 || rem != 1 {
				t.Fatalf("unlearn tick at %d rules = (%d, %d, %v), want (0, 1, nil)", n, inst, rem, err)
			}
		})
	}

	an, st, tgt := learnedAnalyzer(t, 2000)
	_, _, before := an.MemoStats()
	adds := len(tgt.adds)
	st.Learn("macToPort", appir.MACValue(netpkt.MACFromUint64(next)), appir.U16Value(3))
	if inst, rem, err := an.SyncScoped(nil, []RuleTarget{tgt}); err != nil || inst != 1 || rem != 0 {
		t.Fatalf("delta sync = (%d, %d, %v), want (1, 0, nil)", inst, rem, err)
	}
	if _, _, after := an.MemoStats(); after-before != 1 {
		t.Errorf("one Learn re-solved %d entries, want exactly 1", after-before)
	}
	if got := len(tgt.adds) - adds; got != 1 {
		t.Errorf("one Learn dispatched %d flow_mods, want 1", got)
	}

	small, large := tickAllocs(200), tickAllocs(2000)
	t.Logf("allocs per learn+unlearn tick pair: %.0f at 200 rules, %.0f at 2000", small, large)
	if large != small {
		t.Errorf("tick allocations depend on the installed set: %.1f at 200 rules, %.1f at 2000", small, large)
	}
}

// BenchmarkTrackerTick times one dirty tracker tick — one more learned
// MAC, one sync dispatching its one rule — at three installed-set
// sizes. ns/op should read flat across them.
func BenchmarkTrackerTick(b *testing.B) {
	for _, n := range []int{200, 2000, 20000} {
		b.Run("rules-"+strconv.Itoa(n), func(b *testing.B) {
			an, st, tgt := learnedAnalyzer(b, n)
			targets := []RuleTarget{tgt}
			next := uint64(1 << 30)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next++
				st.Learn("macToPort", appir.MACValue(netpkt.MACFromUint64(next)), appir.U16Value(3))
				if inst, _, err := an.SyncScoped(nil, targets); err != nil || inst != 1 {
					b.Fatalf("tick installed %d rules, err %v", inst, err)
				}
			}
		})
	}
}

// A full table refuses rules; the analyzer must not book them, must
// offer them again once there is room, and must pick the same survivors
// every time.
func TestAnalyzerBooksOnlyWhatLanded(t *testing.T) {
	const capacity, learned = 5, 12
	survivors := func() (*Analyzer, *appir.State, *flowtable.Table, []openflow.Match) {
		an, st := l2Analyzer(t, DefaultAnalyzer())
		for i := 1; i <= learned; i++ {
			learnMAC(st, byte(i), uint16(i))
		}
		tbl := flowtable.New(capacity)
		tgt := tableTarget{tbl: tbl, now: func() time.Time { return t0 }}
		inst, _, err := an.SyncScoped(nil, []RuleTarget{tgt})
		if err != nil {
			t.Fatal(err)
		}
		if inst != capacity || an.InstalledCount() != capacity || tbl.Len() != capacity {
			t.Fatalf("booked %d (count %d) with %d in a table of %d", inst, an.InstalledCount(), tbl.Len(), capacity)
		}
		if got := an.RulesRejected.Value(); got != learned-capacity {
			t.Fatalf("RulesRejected = %d, want %d", got, learned-capacity)
		}
		if got := an.RulesInstalled.Value(); got != capacity {
			t.Fatalf("RulesInstalled = %d, want %d", got, capacity)
		}
		var landed []openflow.Match
		for _, e := range tbl.Entries() {
			landed = append(landed, e.Match.Normalized())
		}
		return an, st, tbl, landed
	}

	an, st, tbl, first := survivors()
	for run := 0; run < 5; run++ {
		if _, _, _, again := survivors(); !slices.Equal(first, again) {
			t.Fatalf("survivor set differs between identical runs:\n%v\n%v", first, again)
		}
	}

	// Make room: one survivor's MAC is forgotten. The next sync removes
	// its rule and the freed slot goes to one of the rejected rules.
	st.Unlearn("macToPort", appir.MACValue(netpkt.MACFromUint64(1)))
	inst, rem, err := an.SyncScoped(nil, []RuleTarget{tableTarget{tbl: tbl, now: func() time.Time { return t0 }}})
	if err != nil {
		t.Fatal(err)
	}
	if rem != 1 || inst != 1 {
		t.Errorf("sync after freeing a slot = (%d, %d), want (1, 1)", inst, rem)
	}
	if an.InstalledCount() != tbl.Len() || tbl.Len() != capacity {
		t.Errorf("analyzer books %d rules, table holds %d of %d", an.InstalledCount(), tbl.Len(), capacity)
	}
}
