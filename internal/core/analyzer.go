package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"floodguard/internal/appir"
	"floodguard/internal/controller"
	"floodguard/internal/flowtable"
	"floodguard/internal/openflow"
	"floodguard/internal/symexec"
	"floodguard/internal/telemetry"
)

// RuleTarget abstracts where proactive flow rules land: switch flow
// tables (the default) or the data plane cache's resident table (§IV.E).
type RuleTarget interface {
	// InstallProactive applies a flow_mod derived by the analyzer. A
	// non-nil error means the rule did not land (e.g. the table is
	// full): the analyzer does not book it and offers it again at the
	// next sync.
	InstallProactive(fm openflow.FlowMod) error
}

// datapathTarget installs into a switch via its controller session. The
// send is asynchronous; a switch-side rejection arrives, if at all, as
// an OpenFlow error message, not here.
type datapathTarget struct{ dp controller.Datapath }

func (t datapathTarget) InstallProactive(fm openflow.FlowMod) error {
	t.dp.Send(openflow.Framed{Msg: fm})
	return nil
}

// tableTarget installs into an in-memory table (the cache's rule table).
type tableTarget struct {
	tbl *flowtable.Table
	now func() time.Time
}

// A capacity error costs only coverage (uncovered packets fall back to
// the ordinary queues), but it is returned so the analyzer's books match
// the table.
func (t tableTarget) InstallProactive(fm openflow.FlowMod) error {
	_, err := t.tbl.Apply(fm, t.now())
	return err
}

// appAnalysis is the per-application offline artifact of Algorithm 1.
type appAnalysis struct {
	app   *controller.App
	paths []symexec.Path
	// lastVersion records, per datapath scope (sharedScope for apps with
	// shared state), the state version the current rules derive from.
	lastVersion map[uint64]uint64
	// pendingChanges counts version bumps since the last sync (for
	// UpdateEveryN), per scope.
	pendingChanges map[uint64]uint64
	// memos holds the per-scope derivation caches the tracker derives
	// through.
	memos map[uint64]*symexec.Memo
	// shared is the one-scope list scopes returns for a shared-state app.
	shared [1]controller.DatapathState
}

// sharedScope keys bookkeeping for apps whose state is shared across
// datapaths.
const sharedScope uint64 = 0

// scopes lists the app's state scopes without allocating: the shared
// state under sharedScope, or every datapath's private copy.
func (aa *appAnalysis) scopes() []controller.DatapathState {
	if aa.app.PerDatapath {
		return aa.app.DatapathStates()
	}
	aa.shared[0] = controller.DatapathState{DPID: sharedScope, State: aa.app.State}
	return aa.shared[:]
}

// Analyzer is the proactive flow rule analyzer module: symbolic execution
// engine (offline), application tracker and proactive flow rule
// dispatcher (runtime). It runs on the engine goroutine; only MemoStats
// and the telemetry counters may be read from elsewhere.
type Analyzer struct {
	cfg  AnalyzerConfig
	apps []*appAnalysis

	// installed tracks the currently installed proactive rules by
	// identity, for differential updates (Figure 8).
	installed map[ruleID]openflow.FlowMod
	// desired is the derived rule set by identity. A sync folds each
	// scope's memo delta into it in place instead of rebuilding it.
	desired map[ruleID]desiredRule
	// pending holds every identity whose desired and installed rules may
	// differ: touched by a delta, refused by a target, or re-offered by
	// Forget. A sync dispatches from it alone, so it costs what changed.
	pending map[ruleID]struct{}
	// rebuild is set when a delta touches an identity whose derived rules
	// disagree: the first in derivation order wins there, which a count
	// cannot tell, so desired is rebuilt from the memos' whole sets.
	rebuild bool
	// versions, stale and fresh are per-sync scratch.
	versions     []scopeVersion
	stale, fresh []ruleID

	// memoList publishes every memo for MemoStats: copied on write (once
	// per new scope), so a scrape reads it without a lock.
	memoList atomic.Pointer[[]*symexec.Memo]

	// deriveSeconds, when armed by Register, observes every derivation's
	// wall-clock cost.
	deriveSeconds *telemetry.Histogram

	// Derivations counts Algorithm 2 executions (overhead accounting).
	Derivations telemetry.Counter
	// RulesInstalled and RulesRemoved count dispatcher actions that
	// landed; RulesRejected counts those a target refused.
	RulesInstalled telemetry.Counter
	RulesRemoved   telemetry.Counter
	RulesRejected  telemetry.Counter
	// LastDeriveDuration is the wall-clock cost of the most recent
	// derivation (the Figure 13 quantity).
	LastDeriveDuration time.Duration
}

// desiredRule is one identity of the derived set: the flow_mod to
// install and how many derived rules (across scopes and apps) carry it.
type desiredRule struct {
	fm   openflow.FlowMod
	refs int
	// mixed marks an identity some of whose derived rules differ from fm.
	mixed bool
}

// scopeVersion snapshots an app scope's state version at derivation
// time, committed into the tracker bookkeeping once the sync succeeds.
type scopeVersion struct {
	aa    *appAnalysis
	scope uint64
	ver   uint64
}

// NewAnalyzer builds an analyzer over the controller's registered apps.
func NewAnalyzer(cfg AnalyzerConfig, apps []*controller.App) (*Analyzer, error) {
	a := &Analyzer{
		cfg:       cfg,
		installed: make(map[ruleID]openflow.FlowMod),
		desired:   make(map[ruleID]desiredRule),
		pending:   make(map[ruleID]struct{}),
	}
	for _, app := range apps {
		a.apps = append(a.apps, &appAnalysis{
			app:            app,
			lastVersion:    make(map[uint64]uint64),
			pendingChanges: make(map[uint64]uint64),
			memos:          make(map[uint64]*symexec.Memo),
		})
	}
	return a, nil
}

// Register attaches the analyzer's metrics to a telemetry registry:
// derivation latency histogram, run/dispatch counters, and the epoch
// memo's hit/miss totals. Call once, before derivations begin.
func (a *Analyzer) Register(reg *telemetry.Registry) {
	a.deriveSeconds = reg.Histogram("fg_derive_seconds",
		"Wall-clock cost of Algorithm 2 proactive rule derivation runs.", nil)
	reg.RegisterCounter("fg_analyzer_derivations_total",
		"Algorithm 2 executions (one per app per scope per sync).", &a.Derivations)
	reg.RegisterCounter("fg_analyzer_rules_installed_total",
		"Proactive rules dispatched to targets.", &a.RulesInstalled)
	reg.RegisterCounter("fg_analyzer_rules_removed_total",
		"Stale proactive rules withdrawn from targets.", &a.RulesRemoved)
	reg.RegisterCounter("fg_analyzer_rules_rejected_total",
		"Proactive rule changes a target refused (e.g. table full); retried at the next sync.", &a.RulesRejected)
	reg.CounterFunc("fg_analyzer_memo_hits_total",
		"Per-path derivations served from the epoch memo.", func() uint64 {
			h, _, _ := a.MemoStats()
			return h
		})
	reg.CounterFunc("fg_analyzer_memo_misses_total",
		"Per-path derivations the epoch memo had to re-solve.", func() uint64 {
			_, m, _ := a.MemoStats()
			return m
		})
	reg.CounterFunc("fg_analyzer_memo_entries_resolved_total",
		"Table entries re-solved one by one in place of a whole path.", func() uint64 {
			_, _, e := a.MemoStats()
			return e
		})
}

// MemoStats sums, across every app's epoch memos, the per-path cache
// hits and misses and the table entries re-solved individually. Safe
// from any goroutine.
func (a *Analyzer) MemoStats() (hits, misses, entries uint64) {
	if list := a.memoList.Load(); list != nil {
		for _, m := range *list {
			h, mi := m.Stats()
			hits += h
			misses += mi
			entries += m.EntriesResolved()
		}
	}
	return hits, misses, entries
}

// memoFor returns the epoch memo of one app scope, creating it on the
// scope's first derivation.
func (a *Analyzer) memoFor(aa *appAnalysis, scope uint64) *symexec.Memo {
	m := aa.memos[scope]
	if m == nil {
		m = symexec.NewMemo(aa.paths)
		aa.memos[scope] = m
		var list []*symexec.Memo
		if old := a.memoList.Load(); old != nil {
			list = append(list, *old...)
		}
		list = append(list, m)
		a.memoList.Store(&list)
	}
	return m
}

// Prepare runs Algorithm 1 for every application — the offline
// "preparation work" before the state machine starts (Figure 3). It is
// idempotent.
func (a *Analyzer) Prepare() error {
	for _, aa := range a.apps {
		if aa.paths != nil {
			continue
		}
		paths, err := symexec.Explore(aa.app.Prog)
		if err != nil {
			return fmt.Errorf("prepare %s: %w", aa.app.Name(), err)
		}
		aa.paths = paths
	}
	return nil
}

// Paths exposes an app's path conditions (diagnostics, Table I/III
// reporting).
func (a *Analyzer) Paths(appName string) []symexec.Path {
	for _, aa := range a.apps {
		if aa.app.Name() == appName {
			return aa.paths
		}
	}
	return nil
}

// StateSensitiveReport returns, per app, the state-sensitive variables
// discovered by analysis — the content of the paper's Table III.
func (a *Analyzer) StateSensitiveReport() map[string][]string {
	out := make(map[string][]string, len(a.apps))
	for _, aa := range a.apps {
		out[aa.app.Name()] = symexec.StateSensitiveVariables(aa.paths)
	}
	return out
}

// DeriveAll runs Algorithm 2 for every app against its live state and
// returns the merged rule set (deduplicated by match+priority). It is
// the direct, cold run — no memo — that Figure 13 measures.
func (a *Analyzer) DeriveAll() ([]appir.ConcreteRule, error) {
	start := time.Now()
	defer a.observeDerive(start)

	var merged []appir.ConcreteRule
	seen := make(map[ruleID]struct{})
	for _, aa := range a.apps {
		if aa.paths == nil {
			return nil, fmt.Errorf("analyzer: %s not prepared", aa.app.Name())
		}
		rules, err := symexec.DeriveRules(aa.paths, aa.app.State)
		if err != nil {
			return nil, fmt.Errorf("derive %s: %w", aa.app.Name(), err)
		}
		a.Derivations.Inc()
		aa.lastVersion[sharedScope] = aa.app.State.Version()
		aa.pendingChanges[sharedScope] = 0
		for _, r := range rules {
			rule := r.Rule
			id := ruleID{scope: sharedScope, match: rule.Match.Normalized(), priority: rule.Priority}
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
			merged = append(merged, rule)
		}
	}
	return merged, nil
}

// observeDerive records a derivation's wall-clock cost.
func (a *Analyzer) observeDerive(start time.Time) {
	a.LastDeriveDuration = time.Since(start)
	if a.deriveSeconds != nil {
		a.deriveSeconds.ObserveDuration(a.LastDeriveDuration)
	}
}

// ruleID is a proactive rule's identity: the datapath scope it is
// dispatched to (sharedScope or a dpid) and what it matches at which
// priority. It is a comparable value, so the tracker's maps are keyed
// by it directly and a tick formats nothing.
type ruleID struct {
	scope    uint64
	match    openflow.Match // normalized
	priority uint16
}

// compare orders identities for dispatch: priority descending, then the
// normalized match fields, then scope.
func (id ruleID) compare(o ruleID) int {
	return cmp.Or(
		cmp.Compare(o.priority, id.priority),
		id.match.Compare(&o.match),
		cmp.Compare(id.scope, o.scope),
	)
}

// flowMod is a derived rule's identity in scope and the flow_mod that
// installs it.
func (a *Analyzer) flowMod(scope uint64, rule appir.ConcreteRule) (ruleID, openflow.FlowMod) {
	return ruleID{scope: scope, match: rule.Match.Normalized(), priority: rule.Priority},
		openflow.FlowMod{
			Match:       rule.Match,
			Command:     openflow.FlowAdd,
			IdleTimeout: rule.IdleTimeout,
			HardTimeout: rule.HardTimeout,
			Priority:    rule.Priority,
			BufferID:    openflow.NoBuffer,
			OutPort:     openflow.PortNone,
			Actions:     rule.Actions,
		}
}

// sameRule reports whether two flow_mods of one identity are the same
// derived rule.
func sameRule(x, y *openflow.FlowMod) bool {
	return x.Match == y.Match && x.IdleTimeout == y.IdleTimeout &&
		x.HardTimeout == y.HardTimeout && slices.Equal(x.Actions, y.Actions)
}

// SyncScoped derives the current proactive rule set and reconciles the
// targets with it: new rules are installed, stale ones removed ("the
// variation should be quite simple as adding or removing a few matching
// rules", §IV.D). It returns (installed, removed). Rules
// derived from a per-datapath app state are dispatched only to that
// datapath's target (plus the shared targets, e.g. a cache table);
// rules from shared-state apps go everywhere.
//
// A sync costs what changed: each scope's memo reports the rules it
// removed and added, those are folded into the desired set, and only
// the identities they touched (plus any a target refused before) are
// diffed against the installed set and dispatched.
func (a *Analyzer) SyncScoped(scoped map[uint64]RuleTarget, shared []RuleTarget) (int, int, error) {
	start := time.Now()
	err := a.derive()
	a.observeDerive(start)
	if err != nil {
		return 0, 0, err
	}
	inst, rem := a.dispatch(scoped, shared)
	return inst, rem, nil
}

// derive runs Algorithm 2 for every app scope through its epoch memo
// and folds the reported changes into the desired set. The tracker
// bookkeeping is committed only if every scope derived.
func (a *Analyzer) derive() error {
	a.versions = a.versions[:0]
	for _, aa := range a.apps {
		if aa.paths == nil {
			return fmt.Errorf("analyzer: %s not prepared", aa.app.Name())
		}
		for _, sc := range aa.scopes() {
			// Version captured before deriving: a mutation racing the
			// derivation re-derives next round instead of being missed.
			ver := sc.State.Version()
			removed, added, err := a.memoFor(aa, sc.DPID).DeriveDelta(sc.State, symexec.DeriveOptions{})
			// A failed delta still carries the slots that did re-solve.
			a.fold(sc.DPID, removed, added)
			if err != nil {
				return fmt.Errorf("derive %s: %w", aa.app.Name(), err)
			}
			a.Derivations.Inc()
			a.versions = append(a.versions, scopeVersion{aa: aa, scope: sc.DPID, ver: ver})
		}
	}
	if a.rebuild {
		if err := a.rebuildDesired(); err != nil {
			return err
		}
	}
	for _, sv := range a.versions {
		sv.aa.lastVersion[sv.scope] = sv.ver
		sv.aa.pendingChanges[sv.scope] = 0
	}
	return nil
}

// fold applies one scope's memo delta to the desired set, removals
// first, and marks every identity it touches pending. Identities whose
// derived rules all agree are reference-counted; a delta that makes or
// touches a disagreement asks for a rebuild instead.
func (a *Analyzer) fold(scope uint64, removed, added []symexec.ProactiveRule) {
	if a.rebuild {
		return // the rebuild recomputes everything
	}
	for _, r := range removed {
		id, fm := a.flowMod(scope, r.Rule)
		a.pending[id] = struct{}{}
		d, ok := a.desired[id]
		if !ok || d.mixed || !sameRule(&d.fm, &fm) {
			a.rebuild = true
			return
		}
		if d.refs--; d.refs == 0 {
			delete(a.desired, id)
		} else {
			a.desired[id] = d
		}
	}
	for _, r := range added {
		if !a.add(a.flowMod(scope, r.Rule)) {
			a.rebuild = true
			return
		}
	}
}

// add counts one more derived rule under id, marks id pending, and
// reports whether every rule under id still agrees with the first.
func (a *Analyzer) add(id ruleID, fm openflow.FlowMod) bool {
	a.pending[id] = struct{}{}
	d, ok := a.desired[id]
	if !ok {
		a.desired[id] = desiredRule{fm: fm, refs: 1}
		return true
	}
	d.refs++
	d.mixed = d.mixed || !sameRule(&d.fm, &fm)
	a.desired[id] = d
	return !d.mixed
}

// rebuildDesired recomputes the desired set from every memo's whole
// rule set, in derivation order: per identity the first rule wins, as a
// direct derivation deduplicates. Every identity it held before or
// holds after is marked pending. Only a disagreement between two
// derived rules of one identity brings the tracker here.
func (a *Analyzer) rebuildDesired() error {
	for id := range a.desired {
		a.pending[id] = struct{}{}
	}
	clear(a.desired)
	for _, aa := range a.apps {
		for _, sc := range aa.scopes() {
			rules, err := a.memoFor(aa, sc.DPID).Derive(sc.State, symexec.DeriveOptions{})
			if err != nil {
				return fmt.Errorf("derive %s: %w", aa.app.Name(), err)
			}
			for _, r := range rules {
				a.add(a.flowMod(sc.DPID, r.Rule))
			}
		}
	}
	a.rebuild = false
	return nil
}

// dispatch reconciles the targets with the desired set over the pending
// identities: stale rules are withdrawn, then fresh ones (new, or with
// actions that differ from the installed rule's) are installed, each in
// ruleID order, so which rules fit a bounded table does not depend on
// map iteration order. A rule is booked as installed (or removed) only
// once every target it is dispatched to accepted it; a refused one is
// counted in RulesRejected and stays pending, so the next sync offers
// it again.
func (a *Analyzer) dispatch(scoped map[uint64]RuleTarget, shared []RuleTarget) (installed, removed int) {
	peak := len(a.pending)
	a.stale, a.fresh = a.stale[:0], a.fresh[:0]
	for id := range a.pending {
		want, isDesired := a.desired[id]
		old, isInstalled := a.installed[id]
		switch {
		case !isDesired && isInstalled:
			a.stale = append(a.stale, id)
		case isDesired && (!isInstalled || !slices.Equal(old.Actions, want.fm.Actions)):
			a.fresh = append(a.fresh, id)
		default:
			delete(a.pending, id) // already in agreement
		}
	}
	slices.SortFunc(a.stale, ruleID.compare)
	slices.SortFunc(a.fresh, ruleID.compare)

	for _, id := range a.stale {
		del := a.installed[id]
		del.Command = openflow.FlowDeleteStrict
		if offer(id.scope, del, scoped, shared) != nil {
			a.RulesRejected.Inc()
			continue
		}
		delete(a.installed, id)
		delete(a.pending, id)
		removed++
		a.RulesRemoved.Inc()
	}
	for _, id := range a.fresh {
		fm := a.desired[id].fm
		if offer(id.scope, fm, scoped, shared) != nil {
			a.RulesRejected.Inc()
			continue
		}
		a.installed[id] = fm
		delete(a.pending, id)
		installed++
		a.RulesInstalled.Inc()
	}
	if len(a.pending) == 0 && peak > 64 {
		// A map never shrinks and ranging over one costs its peak size:
		// once a cold sync drained it, every later tick would pay that.
		a.pending = make(map[ruleID]struct{})
	}
	return installed, removed
}

// offer sends fm to every target of its scope and reports the first
// refusal; the remaining targets are still offered it.
func offer(scope uint64, fm openflow.FlowMod, scoped map[uint64]RuleTarget, shared []RuleTarget) (err error) {
	try := func(t RuleTarget) {
		if e := t.InstallProactive(fm); e != nil && err == nil {
			err = e
		}
	}
	if scope == sharedScope {
		for _, t := range scoped {
			try(t)
		}
	} else if t, ok := scoped[scope]; ok {
		try(t)
	}
	for _, t := range shared {
		try(t)
	}
	return err
}

// InstalledCount returns the number of live proactive rules.
func (a *Analyzer) InstalledCount() int { return len(a.installed) }

// NeedsUpdate applies the configured §IV.D strategy to decide whether any
// app's state has drifted enough to warrant re-derivation: at least EveryN
// changes under UpdateEveryN, at least one otherwise. The caller polls it
// on the tracker's ticker, which is what makes either strategy an
// interval one.
func (a *Analyzer) NeedsUpdate() bool {
	if a.cfg.Strategy == UpdateEveryN && a.cfg.EveryN > 0 {
		return a.dirty(a.cfg.EveryN)
	}
	return a.dirty(1)
}

func (a *Analyzer) dirty(n uint64) bool {
	for _, aa := range a.apps {
		for _, sc := range aa.scopes() {
			v, last := sc.State.Version(), aa.lastVersion[sc.DPID]
			if v > last {
				aa.pendingChanges[sc.DPID] = v - last
			}
			if aa.pendingChanges[sc.DPID] >= n {
				return true
			}
		}
	}
	return false
}
