package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
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
	// through (guarded by Analyzer.memoMu).
	memos map[uint64]*symexec.Memo
}

// sharedScope keys bookkeeping for apps whose state is shared across
// datapaths.
const sharedScope uint64 = 0

func (aa *appAnalysis) scopes() map[uint64]*appir.State {
	if !aa.app.PerDatapath {
		return map[uint64]*appir.State{sharedScope: aa.app.State}
	}
	return aa.app.DatapathStates()
}

// Analyzer is the proactive flow rule analyzer module: symbolic execution
// engine (offline), application tracker and proactive flow rule
// dispatcher (runtime).
type Analyzer struct {
	cfg  AnalyzerConfig
	apps []*appAnalysis

	// installed tracks the currently installed proactive rules by
	// identity, for differential updates (Figure 8).
	installed map[ruleID]openflow.FlowMod
	// desiredHint sizes the next sync's desired-rule map (guarded by
	// deriveMu).
	desiredHint int

	// deriveMu serializes derivation runs (computeDesired / DeriveAll):
	// the epoch memos are single-deriver structures, and with AsyncDerive
	// a background derivation may still be in flight when an engine-side
	// caller asks for a synchronous one.
	deriveMu sync.Mutex
	// memoMu guards the per-app memo maps: the compute phase may run on a
	// background goroutine while a telemetry scrape sums memo stats.
	memoMu sync.Mutex

	// deriveSeconds, when armed by Register, observes every derivation's
	// wall-clock cost.
	deriveSeconds *telemetry.Histogram

	// Derivations counts Algorithm 2 executions (overhead accounting).
	// Atomic: the compute phase may increment it off the engine goroutine.
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

// NewAnalyzer builds an analyzer over the controller's registered apps.
func NewAnalyzer(cfg AnalyzerConfig, apps []*controller.App) (*Analyzer, error) {
	a := &Analyzer{cfg: cfg, installed: make(map[ruleID]openflow.FlowMod)}
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
	a.memoMu.Lock()
	defer a.memoMu.Unlock()
	for _, aa := range a.apps {
		for _, m := range aa.memos {
			h, mi := m.Stats()
			hits += h
			misses += mi
			entries += m.EntriesResolved()
		}
	}
	return hits, misses, entries
}

// deriveFor runs Algorithm 2 for one app scope through its epoch memo:
// the same rules in the same order as a direct derivation, re-solving
// only the paths — and of the table-driven paths only the entries —
// that moved since the last run.
func (a *Analyzer) deriveFor(aa *appAnalysis, scope uint64, st *appir.State) ([]symexec.ProactiveRule, error) {
	a.memoMu.Lock()
	m := aa.memos[scope]
	if m == nil {
		m = symexec.NewMemo(aa.paths)
		aa.memos[scope] = m
	}
	a.memoMu.Unlock()
	return m.Derive(st, symexec.DeriveOptions{Workers: a.cfg.DeriveWorkers})
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
	a.deriveMu.Lock()
	defer a.deriveMu.Unlock()
	start := time.Now()
	defer func() {
		a.LastDeriveDuration = time.Since(start)
		if a.deriveSeconds != nil {
			a.deriveSeconds.ObserveDuration(a.LastDeriveDuration)
		}
	}()

	var merged []appir.ConcreteRule
	seen := make(map[ruleID]struct{})
	for _, aa := range a.apps {
		if aa.paths == nil {
			return nil, fmt.Errorf("analyzer: %s not prepared", aa.app.Name())
		}
		rules, err := symexec.DeriveRulesOpts(aa.paths, aa.app.State, symexec.DeriveOptions{Workers: a.cfg.DeriveWorkers})
		if err != nil {
			return nil, fmt.Errorf("derive %s: %w", aa.app.Name(), err)
		}
		a.Derivations.Inc()
		aa.lastVersion[sharedScope] = aa.app.State.Version()
		aa.pendingChanges[sharedScope] = 0
		for _, r := range rules {
			rule := r.Rule
			if o := a.cfg.RuleIdleTimeoutOverride; o > 0 {
				rule.IdleTimeout = o
			}
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

// Sync derives the current proactive rule set and reconciles the targets
// with it: new rules are installed, stale ones removed ("the variation
// should be quite simple as adding or removing a few matching rules",
// §IV.D). It returns (installed, removed).
//
// Convenience form for single-target deployments: every rule goes to
// every target. Multi-switch deployments with per-datapath apps use
// SyncScoped.
func (a *Analyzer) Sync(targets []RuleTarget) (int, int, error) {
	shared := targets
	return a.SyncScoped(nil, shared)
}

// SyncScoped reconciles proactive rules with datapath scoping: rules
// derived from a per-datapath app state are dispatched only to that
// datapath's target (plus the shared targets, e.g. a cache table);
// rules from shared-state apps go everywhere.
func (a *Analyzer) SyncScoped(scoped map[uint64]RuleTarget, shared []RuleTarget) (int, int, error) {
	return a.applyOutcome(a.computeDesired(), scoped, shared)
}

// scopeVersion snapshots an app scope's state version at derivation
// time, to be committed into the tracker bookkeeping at apply time.
type scopeVersion struct {
	aa    *appAnalysis
	scope uint64
	ver   uint64
}

// deriveOutcome is the result of the compute phase of a sync: the
// desired rule set plus the bookkeeping to commit when it is applied.
type deriveOutcome struct {
	next     map[ruleID]openflow.FlowMod
	versions []scopeVersion
	err      error
	duration time.Duration
}

// computeDesired is the derivation half of a sync: it runs Algorithm 2
// for every app scope and assembles the desired rule map. It touches
// only immutable path sets, thread-safe app states, and atomics, so it
// is safe to run off the engine goroutine while the FSM stays live —
// the engine-side bookkeeping is deferred to applyOutcome. deriveMu
// serializes it against a concurrent DeriveAll or a second sync: the
// epoch memos admit one deriver at a time.
func (a *Analyzer) computeDesired() *deriveOutcome {
	a.deriveMu.Lock()
	defer a.deriveMu.Unlock()
	start := time.Now()
	o := &deriveOutcome{next: make(map[ruleID]openflow.FlowMod, a.desiredHint)}
	defer func() {
		a.desiredHint = len(o.next)
		o.duration = time.Since(start)
		if a.deriveSeconds != nil {
			a.deriveSeconds.ObserveDuration(o.duration)
		}
	}()

	for _, aa := range a.apps {
		if aa.paths == nil {
			o.err = fmt.Errorf("analyzer: %s not prepared", aa.app.Name())
			return o
		}
		for scope, st := range aa.scopes() {
			// Version captured before deriving: a mutation racing the
			// derivation re-derives next round instead of being missed.
			ver := st.Version()
			rules, err := a.deriveFor(aa, scope, st)
			if err != nil {
				o.err = fmt.Errorf("derive %s: %w", aa.app.Name(), err)
				return o
			}
			a.Derivations.Inc()
			o.versions = append(o.versions, scopeVersion{aa: aa, scope: scope, ver: ver})
			for _, r := range rules {
				rule := r.Rule
				if ov := a.cfg.RuleIdleTimeoutOverride; ov > 0 {
					rule.IdleTimeout = ov
				}
				id := ruleID{scope: scope, match: rule.Match.Normalized(), priority: rule.Priority}
				if _, dup := o.next[id]; dup {
					continue
				}
				o.next[id] = openflow.FlowMod{
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
		}
	}
	return o
}

// applyOutcome is the dispatch half of a sync: it commits the tracker
// bookkeeping and reconciles the targets with the desired rule set. A
// rule is booked as installed (or removed) only once every target it is
// dispatched to accepted it; a refused one is counted in RulesRejected
// and comes up again at the next sync. The delta goes out in ruleID
// order, so which rules fit a bounded table does not depend on map
// iteration order. It mutates analyzer state and sends to targets, so
// it must run on the engine goroutine.
func (a *Analyzer) applyOutcome(o *deriveOutcome, scoped map[uint64]RuleTarget, shared []RuleTarget) (int, int, error) {
	a.LastDeriveDuration = o.duration
	if o.err != nil {
		return 0, 0, o.err
	}
	for _, sv := range o.versions {
		sv.aa.lastVersion[sv.scope] = sv.ver
		sv.aa.pendingChanges[sv.scope] = 0
	}

	// dispatch offers fm to every target of its scope and reports the
	// first refusal; the remaining targets are still offered it.
	dispatch := func(scope uint64, fm openflow.FlowMod) (err error) {
		offer := func(t RuleTarget) {
			if e := t.InstallProactive(fm); e != nil && err == nil {
				err = e
			}
		}
		if scope == sharedScope {
			for _, t := range scoped {
				offer(t)
			}
		} else if t, ok := scoped[scope]; ok {
			offer(t)
		}
		for _, t := range shared {
			offer(t)
		}
		return err
	}

	var stale, fresh []ruleID
	for id := range a.installed {
		if _, keep := o.next[id]; !keep {
			stale = append(stale, id)
		}
	}
	for id, fm := range o.next {
		if old, ok := a.installed[id]; !ok || !slices.Equal(old.Actions, fm.Actions) {
			fresh = append(fresh, id)
		}
	}
	slices.SortFunc(stale, ruleID.compare)
	slices.SortFunc(fresh, ruleID.compare)

	installed, removed := 0, 0
	for _, id := range stale {
		del := a.installed[id]
		del.Command = openflow.FlowDeleteStrict
		if dispatch(id.scope, del) != nil {
			a.RulesRejected.Inc()
			continue
		}
		delete(a.installed, id)
		removed++
		a.RulesRemoved.Inc()
	}
	for _, id := range fresh {
		fm := o.next[id]
		if dispatch(id.scope, fm) != nil {
			a.RulesRejected.Inc()
			continue
		}
		a.installed[id] = fm
		installed++
		a.RulesInstalled.Inc()
	}
	return installed, removed, nil
}

// StartAsync launches the compute phase on its own goroutine and
// returns a buffered channel that will deliver the outcome. The caller
// (the guard's completion poller) applies it engine-side with
// applyOutcome. At most one derivation may be in flight at a time: the
// epoch memos are not safe for concurrent Derive calls.
func (a *Analyzer) StartAsync() <-chan *deriveOutcome {
	ch := make(chan *deriveOutcome, 1)
	go func() { ch <- a.computeDesired() }()
	return ch
}

// InstalledCount returns the number of live proactive rules.
func (a *Analyzer) InstalledCount() int { return len(a.installed) }

// Forget clears the installed-rule bookkeeping (e.g. after the defense
// ends and timeouts reclaim the rules).
func (a *Analyzer) Forget() { a.installed = make(map[ruleID]openflow.FlowMod) }

// NeedsUpdate applies the configured §IV.D strategy to decide whether any
// app's state has drifted enough to warrant re-derivation. Interval
// strategy always reports true (the caller invokes it on its ticker).
func (a *Analyzer) NeedsUpdate() bool {
	switch a.cfg.Strategy {
	case UpdateInterval:
		return a.dirty(1)
	case UpdateEveryN:
		n := a.cfg.EveryN
		if n == 0 {
			n = 1
		}
		return a.dirty(n)
	default:
		return a.dirty(1)
	}
}

func (a *Analyzer) dirty(n uint64) bool {
	for _, aa := range a.apps {
		for scope, st := range aa.scopes() {
			v := st.Version()
			if v > aa.lastVersion[scope] {
				aa.pendingChanges[scope] = v - aa.lastVersion[scope]
			}
			if aa.pendingChanges[scope] >= n {
				return true
			}
		}
	}
	return false
}
