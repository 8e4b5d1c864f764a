package main

import "time"

// pacer is the open-loop schedule: frame k is due at start + k/rate,
// whatever the system under test is doing. The generator asks how many
// frames are due, sends them stamped with their *due* time (so a stall
// charges its wait to every frame it delayed) and records how late it
// ran.
type pacer struct {
	start time.Time
	rate  float64 // frames per second
	sent  uint64
}

// dueBy returns how many frames in total are due at now.
func (p *pacer) dueBy(now time.Time) uint64 {
	d := now.Sub(p.start)
	if d <= 0 {
		return 0
	}
	return uint64(d.Seconds() * p.rate)
}

// dueTime is when frame k (0-based) was due.
func (p *pacer) dueTime(k uint64) time.Time {
	return p.start.Add(time.Duration(float64(k) / p.rate * float64(time.Second)))
}

// take claims the frames due at now: it returns the index of the first
// unsent frame, how many to send, and the generator's lag — how long
// ago the first of them was due.
func (p *pacer) take(now time.Time) (first, n uint64, lag time.Duration) {
	due := p.dueBy(now)
	if due <= p.sent {
		return p.sent, 0, 0
	}
	first, n = p.sent, due-p.sent
	lag = now.Sub(p.dueTime(first))
	p.sent = due
	return first, n, lag
}
