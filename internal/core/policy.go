// Package core implements FLOODGUARD itself: the decision policy behind
// the Figure 3 state machine (Policy), the proactive flow rule analyzer
// (symbolic execution engine + application tracker + dispatcher,
// §IV.B), and the Guard, the shell that feeds the policy and carries out
// its decisions as the packet migration module's migration agent
// (§IV.C.1). The data plane cache it steers lives in internal/dpcache.
package core

import (
	"fmt"
	"math"
	"time"

	"floodguard/internal/attrib"
)

// FSMState is a state of the FloodGuard state machine.
type FSMState int

// Figure 3's states.
const (
	// StateIdle: no attack; only the monitoring component is active.
	StateIdle FSMState = iota + 1
	// StateInit: attack detected; migration rules are being installed
	// and proactive flow rules derived.
	StateInit
	// StateDefense: proactive rules installed and kept up to date; the
	// cache replays table-miss packets under rate limit.
	StateDefense
	// StateFinish: attack over; migration stopped; the cache drains its
	// remaining packets.
	StateFinish
	// StateDegraded: Defense with the data plane cache unreachable — the
	// sideband to the cache is down, so migration is withdrawn and
	// the guard falls back to direct rate-limited packet_in handling
	// (the paper's pre-migration behavior) until the channel heals.
	// This state extends Figure 3 for channel-failure tolerance.
	StateDegraded
)

// String names the state.
func (s FSMState) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateInit:
		return "init"
	case StateDefense:
		return "defense"
	case StateFinish:
		return "finish"
	case StateDegraded:
		return "degraded"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Transition records one state change for diagnostics and tests. The
// policy leaves At zero; the shell stamps it with its clock.
type Transition struct {
	From, To FSMState
	At       time.Time
	Reason   string
}

// Tick names the shell clock behind an Observation.
type Tick uint8

const (
	TickNone    Tick = iota // no clock: a level input (sideband, ports) changed
	TickSample              // a detection window closed
	TickAdjust              // the replay-rate controller's period elapsed
	TickDerived             // the rules Decisions.Derive asked for are installed
)

// Observation is what the shell saw when it stepped the policy.
type Observation struct {
	Tick       Tick
	PacketIns  int           // the window's data-plane packet_ins (TickSample)
	Enqueued   uint64        // the cache's cumulative enqueue count
	BufferFrac float64       // the fullest switch buffer's occupancy
	Backlog    time.Duration // the controller's work backlog
	Reachable  bool          // the sideband to the cache is up
	Drained    bool          // every cache queue is empty
	// Verdicts are the ports migration can divert, in (datapath, port)
	// order: the diverted set is every Suspect port, plus a fallback.
	// Blanket migration marks every protected ingress port suspect;
	// selective migration passes the latest window's attribution
	// verdicts.
	Verdicts []attrib.Verdict
}

// PortMove is one migration change: Divert installs the port's
// diversion rule, !Divert withdraws it.
type PortMove struct {
	DPID   uint64
	Port   uint16
	Divert bool
}

// Decisions is what one Step asks of the shell, in order: record the
// transitions, apply the migration, set the cache's replay rate, then
// derive when asked. Its slices are valid until the next Step.
type Decisions struct {
	Transitions []Transition
	Moves       []PortMove // migration's changes, in (datapath, port) order
	Rate        float64    // the cache's replay rate (0 parks replay)
	// Derive asks for the proactive rules of a fresh Init; the shell
	// answers with a TickDerived step once they are installed.
	Derive bool
}

// rateEWMAAlpha smooths the detector's packet_in rate estimate.
const rateEWMAAlpha = 0.4

// Policy is FloodGuard's decision logic as plain memory: the Figure 3
// state machine, the saturation detector, per-port migration and the
// replay-rate controller. It reads no clock and starts no goroutine; a
// shell builds an Observation at each of its ticks and carries out the
// Decisions that Step returns. Every step recomputes the wanted
// migration from (state, sideband, verdicts), so no edge can be missed.
type Policy struct {
	det    DetectionConfig
	rl     RateLimitConfig
	quietN int // QuietPeriod in detection windows, rounded up

	state FSMState

	// Detector readings of the last window, and its counters: over
	// counts consecutive hot windows, quiet windows since the attack
	// last showed.
	rate, migRate, score float64
	seeded               bool
	lastEnq              uint64
	over, quiet          int

	replay float64 // replay rate the cache was last given
	active bool    // migration was wanted after the last step

	// Migration: the ports diverted now (sorted), the per-datapath
	// fallback ports, and the scratch they swap with.
	diverted, want []PortMove
	fallback, fb   []PortMove

	dec Decisions
}

// NewPolicy returns an Idle policy.
func NewPolicy(det DetectionConfig, rl RateLimitConfig) *Policy {
	p := &Policy{det: det, rl: rl, state: StateIdle}
	if det.QuietPeriod > 0 && det.SampleInterval > 0 {
		p.quietN = int((det.QuietPeriod + det.SampleInterval - 1) / det.SampleInterval)
	}
	return p
}

// State returns the FSM state.
func (p *Policy) State() FSMState { return p.state }

// PacketInRate returns the smoothed data-plane packet_in rate (pps).
func (p *Policy) PacketInRate() float64 { return p.rate }

// MigrationRate returns the last window's rate of packets diverted into
// the cache (pps).
func (p *Policy) MigrationRate() float64 { return p.migRate }

// Score returns the last window's composite detection score.
func (p *Policy) Score() float64 { return p.score }

// Diverted returns the ports diverted after the last Step, in (datapath,
// port) order: every Moves applied so far, summed. It is valid until the
// next Step.
func (p *Policy) Diverted() []PortMove { return p.diverted }

// Step folds one observation in and returns what the shell must do.
func (p *Policy) Step(o Observation) Decisions {
	d := &p.dec
	d.Transitions, d.Moves = d.Transitions[:0], d.Moves[:0]
	up := o.Reachable
	switch o.Tick {
	case TickSample:
		if p.state == StateFinish && up && o.Drained {
			p.to(StateIdle, "data plane cache drained")
		}
		p.sample(&o)
	case TickDerived:
		if p.state == StateInit {
			p.to(StateDefense, "proactive flow rules installed")
		}
	}
	// Defense needs the sideband: without it the guard degrades to the
	// direct rate-limited fallback, and re-migrates once it heals.
	switch {
	case p.state == StateDefense && !up:
		p.to(StateDegraded, "sideband to data plane cache lost; direct rate-limited fallback")
	case p.state == StateDegraded && up:
		p.to(StateDefense, "sideband to data plane cache healed; re-migrating")
	}
	// Only a derive report leaves Init, so a step that moved and ended
	// there entered it: ask for the proactive rules.
	d.Derive = p.state == StateInit && len(d.Transitions) > 0
	p.reconcile(up, o.Verdicts)
	p.steer(up, d.Derive, o.Tick == TickAdjust, o.Backlog)
	d.Rate = p.replay
	return *d
}

func (p *Policy) to(next FSMState, reason string) {
	p.dec.Transitions = append(p.dec.Transitions, Transition{From: p.state, To: next, Reason: reason})
	if p.state = next; next == StateInit {
		p.over, p.quiet = 0, 0
	}
}

// sample closes one detection window: update the readings, then let the
// FSM act on them.
func (p *Policy) sample(o *Observation) {
	det := &p.det
	perSec := float64(time.Second) / float64(det.SampleInterval)
	x := float64(o.PacketIns) * perSec
	if p.seeded {
		p.rate = rateEWMAAlpha*x + (1-rateEWMAAlpha)*p.rate
	} else {
		p.rate, p.seeded = x, true
	}
	// What the cache absorbs: the attack-ongoing signal while migration
	// hides the flood from the controller.
	p.migRate = float64(o.Enqueued-p.lastEnq) * perSec
	p.lastEnq = o.Enqueued
	p.score = p.scoreOf(p.rate, o.BufferFrac, o.Backlog)
	hot, absorbing := p.score >= 1, p.migRate >= det.RateThresholdPPS
	p.quiet++

	switch p.state {
	case StateIdle, StateFinish:
		// Re-detection during drain re-enters Init.
		if hot || (p.state == StateFinish && absorbing) {
			if p.over++; p.over >= det.TriggerSamples {
				p.to(StateInit, "saturation attack detected")
			}
		} else {
			p.over = 0
		}
	case StateDefense, StateDegraded:
		// Degraded withdrew migration, so the controller sees the flood
		// directly again: the score alone says whether it goes on.
		if hot || (p.state == StateDefense && absorbing) {
			p.quiet = 0
		} else if p.quiet >= p.quietN {
			p.to(StateFinish, "attack traffic subsided")
		}
	}
}

// scoreOf computes the composite detection signal: the worst of the
// normalised packet_in rate and the normalised infrastructure
// utilization, so a slow attacker who exhausts buffers is still caught
// (§IV.C.1).
func (p *Policy) scoreOf(ratePPS, bufferFrac float64, backlog time.Duration) float64 {
	d := &p.det
	if math.IsNaN(ratePPS) || ratePPS < 0 {
		// A poisoned rate sample (NaN EWMA seed, counter skew) must not
		// wedge the comparison chain below: NaN compares false against
		// everything, which would silently disable the rate component.
		ratePPS = 0
	}
	rateNorm, util, utilNorm := 0.0, 0.0, 0.0
	if d.RateThresholdPPS > 0 {
		rateNorm = ratePPS / d.RateThresholdPPS
	}
	if bufferFrac > util { // false for NaN
		util = bufferFrac
	}
	if d.BacklogReference > 0 {
		util = max(util, float64(backlog)/float64(d.BacklogReference))
	}
	if d.UtilizationThreshold > 0 {
		utilNorm = util / d.UtilizationThreshold
	}
	return max(rateNorm, utilNorm)
}

// reconcile recomputes the migration wanted from (state, sideband,
// verdicts) and diffs it against what is diverted. Migration is wanted
// in Init and Defense with the sideband up, and diverts the suspect
// ports; a datapath with none suspect when coverage starts diverts its
// loudest port as a fallback, so Defense never starts uncovered, until a
// real verdict lands there.
func (p *Policy) reconcile(up bool, vs []attrib.Verdict) {
	active := up && (p.state == StateInit || p.state == StateDefense)
	starting := active && !p.active
	p.active = active
	want, fb := p.want[:0], p.fb[:0]
	for i, j := 0, 0; active && i < len(vs); i = j {
		dpid, blamed := vs[i].DPID, false
		for j = i; j < len(vs) && vs[j].DPID == dpid; j++ {
			blamed = blamed || vs[j].Suspect
		}
		group := vs[i:j]
		port, ok := uint16(0), false
		for _, f := range p.fallback {
			if f.DPID == dpid {
				port, ok = f.Port, true
			}
		}
		switch {
		case blamed:
			ok = false
		case starting:
			port, ok = loudest(group), true
		}
		held := false // a fallback whose port left the verdicts lapses
		for _, v := range group {
			isFallback := ok && v.Port == port
			held = held || isFallback
			if v.Suspect || isFallback {
				want = append(want, PortMove{DPID: dpid, Port: v.Port, Divert: true})
			}
		}
		if held {
			fb = append(fb, PortMove{DPID: dpid, Port: port})
		}
	}
	p.fallback, p.fb = fb, p.fallback

	// Merge the sorted old and new sets into per-port moves.
	have, next, moves := p.diverted, want, p.dec.Moves
	for len(have) > 0 || len(next) > 0 {
		switch {
		case len(next) == 0 || (len(have) > 0 && portLess(have[0], next[0])):
			moves = append(moves, PortMove{DPID: have[0].DPID, Port: have[0].Port})
			have = have[1:]
		case len(have) == 0 || portLess(next[0], have[0]):
			moves = append(moves, next[0])
			next = next[1:]
		default:
			have, next = have[1:], next[1:]
		}
	}
	p.dec.Moves = moves
	p.diverted, p.want = want, p.diverted
}

func portLess(a, b PortMove) bool {
	return a.DPID < b.DPID || (a.DPID == b.DPID && a.Port < b.Port)
}

// loudest picks a datapath's fallback port: the largest excursion, then
// the loudest last window, then the lowest port.
func loudest(group []attrib.Verdict) uint16 {
	best := group[0]
	for _, v := range group[1:] {
		if v.Blame > best.Blame || (v.Blame == best.Blame && v.RatePPS > best.RatePPS) {
			best = v
		}
	}
	return best.Port
}

// steer sets the replay rate: parked while there is nothing to replay
// or no sideband to replay over, restarted at the floor on a fresh Init
// or when replay resumes, then AIMD on each adjust tick — grow while the
// controller has headroom, halve when its backlog builds.
func (p *Policy) steer(up, fresh, adjust bool, backlog time.Duration) {
	rl := &p.rl
	switch {
	case !up || p.state == StateIdle:
		p.replay = 0
	case fresh || p.replay == 0:
		p.replay = rl.MinPPS
	case adjust:
		rate := p.replay
		switch {
		case backlog > targetBacklog:
			rate /= 2
		case backlog < targetBacklog/2:
			rate *= rateGrowth
		}
		p.replay = min(max(rate, rl.MinPPS), rl.MaxPPS)
	}
}
