package netsim

import "time"

// Link models a unidirectional link with finite bandwidth and fixed
// propagation latency. Transmissions serialise: a frame waits for the
// frames queued before it (FIFO, infinite queue).
type Link struct {
	eng       *Engine
	bandwidth float64 // bits per second; 0 = infinite
	latency   time.Duration
	busyUntil time.Time
}

// NewLink creates a link on eng. bandwidthBits is in bits/second
// (0 = infinite), latency is one-way propagation delay.
func NewLink(eng *Engine, bandwidthBits float64, latency time.Duration) *Link {
	return &Link{eng: eng, bandwidth: bandwidthBits, latency: latency}
}

// SerializationDelay returns how long size bytes occupy the link.
func (l *Link) SerializationDelay(size int) time.Duration {
	if l.bandwidth <= 0 {
		return 0
	}
	return time.Duration(float64(size*8) / l.bandwidth * float64(time.Second))
}

// Send queues a frame of size bytes; deliver fires when it arrives at the
// far end. It returns the scheduled delivery event.
func (l *Link) Send(size int, deliver func()) *Event {
	now := l.eng.Now()
	start := now
	if l.busyUntil.After(start) {
		start = l.busyUntil
	}
	done := start.Add(l.SerializationDelay(size))
	l.busyUntil = done
	return l.eng.At(done.Add(l.latency), deliver)
}

// EWMA is an exponentially weighted moving average of a rate signal,
// used by the migration agent's flooding detector.
type EWMA struct {
	alpha float64
	value float64
	init  bool
}

// NewEWMA returns an EWMA with smoothing factor alpha in (0, 1].
func NewEWMA(alpha float64) *EWMA { return &EWMA{alpha: alpha} }

// Observe folds a new sample in and returns the new average.
func (e *EWMA) Observe(sample float64) float64 {
	if !e.init {
		e.value = sample
		e.init = true
		return e.value
	}
	e.value = e.alpha*sample + (1-e.alpha)*e.value
	return e.value
}

// Value returns the current average.
func (e *EWMA) Value() float64 { return e.value }
