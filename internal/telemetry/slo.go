package telemetry

import (
	"fmt"
	"sync"
)

// SLO burn-rate health engine.
//
// An Objective is a declarative per-window error budget: each window
// the caller reports how many "units" were observed and how many were
// bad; the objective's Target is the tolerated bad fraction. Health is
// the classic multi-window burn-rate scheme: the burn rate over a
// window span is (bad/total)/Target — 1× means the budget is being
// consumed exactly at the tolerated pace. The state machine pages only
// when BOTH a short and a long span burn hot (fast-and-sustained), and
// warns when the long span alone burns, so a single chaotic window
// neither pages nor hides.
//
// States are deliberately ordinal: ok < warn < page, so callers can
// take a max across objectives for an overall health verdict.

// SLOState is an objective's health verdict.
type SLOState uint8

const (
	SLOOk SLOState = iota
	SLOWarn
	SLOPage
)

func (s SLOState) String() string {
	switch s {
	case SLOOk:
		return "ok"
	case SLOWarn:
		return "warn"
	case SLOPage:
		return "page"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Objective declares one error budget.
type Objective struct {
	// Name identifies the objective in metrics and journal events.
	Name string
	// Target is the tolerated bad fraction per unit observed
	// (e.g. 0.01 for "at most 1% of cold benign packets lost").
	Target float64
	// ShortWindows / LongWindows are the two burn-rate spans, in
	// windows. Defaults: 6 and 36.
	ShortWindows int
	LongWindows  int
	// WarnBurn / PageBurn are the burn-rate thresholds. Defaults:
	// warn at 1× (budget consumed at exactly the tolerated pace over
	// the long span), page at 4× on both spans.
	WarnBurn float64
	PageBurn float64
}

// ObjectiveState is one tracked objective.
type ObjectiveState struct {
	obj   Objective
	short burnRing
	long  burnRing
	state SLOState
	// last observed burns, for exposure.
	shortBurn, longBurn float64
	windows             int
}

// burnRing accumulates (bad, total) pairs over the last N windows.
type burnRing struct {
	bad, total []float64
	sum        struct{ bad, total float64 }
	pos        int
	filled     bool
}

func newBurnRing(n int) burnRing {
	return burnRing{bad: make([]float64, n), total: make([]float64, n)}
}

func (r *burnRing) push(bad, total float64) {
	r.sum.bad += bad - r.bad[r.pos]
	r.sum.total += total - r.total[r.pos]
	r.bad[r.pos], r.total[r.pos] = bad, total
	r.pos++
	if r.pos == len(r.bad) {
		r.pos, r.filled = 0, true
	}
}

func (r *burnRing) fraction() float64 {
	if r.sum.total <= 0 {
		return 0
	}
	return r.sum.bad / r.sum.total
}

// Observe feeds one window's (bad, total) counts and returns the new
// state. A window with total == 0 carries no evidence and burns
// nothing. Not safe for concurrent use; the pipeline observes from
// its window barrier.
func (o *ObjectiveState) Observe(bad, total float64) SLOState {
	if bad < 0 {
		bad = 0
	}
	if bad > total {
		bad = total
	}
	o.short.push(bad, total)
	o.long.push(bad, total)
	o.windows++
	target := o.obj.Target
	if target <= 0 {
		target = 1e-9 // a zero-tolerance objective burns on any badness
	}
	o.shortBurn = o.short.fraction() / target
	o.longBurn = o.long.fraction() / target
	switch {
	case o.shortBurn >= o.obj.PageBurn && o.longBurn >= o.obj.PageBurn:
		o.state = SLOPage
	case o.longBurn >= o.obj.WarnBurn || o.shortBurn >= o.obj.PageBurn:
		o.state = SLOWarn
	default:
		o.state = SLOOk
	}
	return o.state
}

// Burns returns the last short- and long-window burn rates.
func (o *ObjectiveState) Burns() (short, long float64) { return o.shortBurn, o.longBurn }

// Health is a set of objectives with an overall verdict.
type Health struct {
	mu   sync.Mutex
	objs []*ObjectiveState
}

// NewHealth builds an empty health engine.
func NewHealth() *Health { return &Health{} }

// Add registers an objective and returns its tracked state. Call
// before the first Observe; the returned state is indexed in Names()
// order (= Add order).
func (h *Health) Add(obj Objective) *ObjectiveState {
	if obj.ShortWindows <= 0 {
		obj.ShortWindows = 6
	}
	if obj.LongWindows <= 0 {
		obj.LongWindows = 36
	}
	if obj.WarnBurn <= 0 {
		obj.WarnBurn = 1
	}
	if obj.PageBurn <= 0 {
		obj.PageBurn = 4
	}
	st := &ObjectiveState{
		obj:   obj,
		short: newBurnRing(obj.ShortWindows),
		long:  newBurnRing(obj.LongWindows),
	}
	h.mu.Lock()
	h.objs = append(h.objs, st)
	h.mu.Unlock()
	return st
}

// Names lists objective names in Add order (the KindSLO Aux index
// mapping recorded in dump meta lines).
func (h *Health) Names() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, len(h.objs))
	for i, o := range h.objs {
		out[i] = o.obj.Name
	}
	return out
}

// Overall returns the worst state across objectives.
func (h *Health) Overall() SLOState {
	h.mu.Lock()
	defer h.mu.Unlock()
	worst := SLOOk
	for _, o := range h.objs {
		if o.state > worst {
			worst = o.state
		}
	}
	return worst
}

// Register exposes the engine on a Registry: per-objective state and
// burn gauges plus an overall-state gauge, all under the given prefix
// (Prometheus/JSON via the existing endpoints).
func (h *Health) Register(r *Registry, prefix string) {
	h.mu.Lock()
	objs := append([]*ObjectiveState(nil), h.objs...)
	h.mu.Unlock()
	for _, o := range objs {
		o := o
		base := fmt.Sprintf("%s_slo_%s", prefix, sanitizeName(o.obj.Name))
		r.GaugeFunc(base+"_state", "SLO state for "+o.obj.Name+" (0 ok, 1 warn, 2 page)",
			func() float64 { return float64(o.state) })
		r.GaugeFunc(base+"_burn_short", "short-window burn rate for "+o.obj.Name,
			func() float64 { return o.shortBurn })
		r.GaugeFunc(base+"_burn_long", "long-window burn rate for "+o.obj.Name,
			func() float64 { return o.longBurn })
	}
	r.GaugeFunc(prefix+"_slo_overall_state", "worst SLO state across objectives (0 ok, 1 warn, 2 page)",
		func() float64 { return float64(h.Overall()) })
}

func sanitizeName(s string) string {
	b := []byte(s)
	for i, c := range b {
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9' && i > 0)
		if !ok {
			b[i] = '_'
		}
	}
	return string(b)
}
