package telemetry

import (
	"sync"
	"time"
)

// Event is one recorded state transition or notable occurrence: an FSM
// move, a reconnect, a degrade/heal edge. Fields carries key gauges
// captured at transition time (cache depth, packet_in rate, ...).
type Event struct {
	Time   time.Time          `json:"time"`
	From   string             `json:"from,omitempty"`
	To     string             `json:"to,omitempty"`
	Reason string             `json:"reason,omitempty"`
	Fields map[string]float64 `json:"fields,omitempty"`
}

// EventLog is a fixed-capacity ring buffer of events. Appends are
// O(1) under a mutex — event rates are state-transition rates (a few
// per second at most), so a lock is fine here; the hot-path budget
// applies to counters, not transitions. Once full, the oldest event is
// overwritten. A nil *EventLog ignores appends, so components can hold
// one unconditionally.
type EventLog struct {
	mu   sync.Mutex
	ring []Event
	next int
}

// NewEventLog returns a ring of the given capacity (minimum 1).
func NewEventLog(capacity int) *EventLog {
	if capacity < 1 {
		capacity = 1
	}
	return &EventLog{ring: make([]Event, 0, capacity)}
}

// Append records ev, evicting the oldest event when full. Safe on a nil
// receiver (no-op).
func (l *EventLog) Append(ev Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, ev)
	} else {
		l.ring[l.next] = ev
	}
	l.next = (l.next + 1) % cap(l.ring)
	l.mu.Unlock()
}

// Events returns the retained events oldest-first. Safe on a nil
// receiver (returns nil).
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, len(l.ring))
	if len(l.ring) < cap(l.ring) {
		return append(out, l.ring...)
	}
	out = append(out, l.ring[l.next:]...)
	return append(out, l.ring[:l.next]...)
}
