// Package core implements FLOODGUARD itself: the four-state machine that
// coordinates the defense (paper Figure 3), the proactive flow rule
// analyzer (symbolic execution engine + application tracker + dispatcher,
// §IV.B), and the packet migration module's migration agent (§IV.C.1).
// The data plane cache it steers lives in internal/dpcache.
package core

import (
	"fmt"
	"time"
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

// Transition records one state change for diagnostics and tests.
type Transition struct {
	From, To FSMState
	At       time.Time
	Reason   string
}

// fsm enforces the legal transition relation of Figure 3.
type fsm struct {
	state   FSMState
	history []Transition
	onEnter func(tr Transition)
}

func newFSM() *fsm { return &fsm{state: StateIdle} }

var legalTransitions = map[FSMState][]FSMState{
	StateIdle:    {StateInit},
	StateInit:    {StateDefense},
	StateDefense: {StateFinish, StateDegraded},
	StateFinish:  {StateIdle, StateInit},
	// Degraded heals back into Defense when the sideband recovers, or
	// winds down through Finish when the attack ends first.
	StateDegraded: {StateDefense, StateFinish},
}

// to transitions the machine, panicking on illegal edges (a programming
// error, not a runtime condition).
func (f *fsm) to(next FSMState, at time.Time, reason string) error {
	for _, ok := range legalTransitions[f.state] {
		if ok == next {
			tr := Transition{From: f.state, To: next, At: at, Reason: reason}
			f.state = next
			f.history = append(f.history, tr)
			if f.onEnter != nil {
				f.onEnter(tr)
			}
			return nil
		}
	}
	return fmt.Errorf("floodguard: illegal transition %v -> %v (%s)", f.state, next, reason)
}

// State returns the current state.
func (f *fsm) State() FSMState { return f.state }

// History returns the transitions so far.
func (f *fsm) History() []Transition {
	out := make([]Transition, len(f.history))
	copy(out, f.history)
	return out
}
