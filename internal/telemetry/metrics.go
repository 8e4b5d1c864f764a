// Package telemetry is FloodGuard's unified observability layer: a
// lock-free metrics core (atomic counters, gauges, fixed-bucket latency
// histograms) behind a named registry, plus two event systems — sampled
// packet-lifecycle tracing aggregated into per-stage latency histograms,
// and a ring-buffered FSM transition log — and an optional HTTP
// exposition endpoint (Prometheus text format, JSON snapshot, pprof).
//
// Hot-path budget: a counter increment or gauge move is a single atomic
// op and allocates nothing; histogram observation is a handful of atomic
// ops and is only reached behind a sampling gate on per-packet paths.
// Every metric type is usable as its zero value, so components own their
// counters unconditionally and attach them to a registry only when a
// deployment wants exposition.
package telemetry

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic integer gauge (a value that can go up and down:
// queue depths, session counts). The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is an atomic float64 gauge (rates, fractions). The zero
// value is ready to use.
type FloatGauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// LatencyBuckets is the default histogram bucket layout for pipeline
// stage latencies: roughly exponential from 10µs to 10s, wide enough for
// both the microsecond switch path and multi-second cache residence.
var LatencyBuckets = []float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram of float64 observations
// (seconds, for latency histograms). Buckets are cumulative at
// exposition time, Prometheus-style: an observation lands in the first
// bucket whose upper bound is >= the value. Observation is lock-free:
// one atomic add for the bucket, one for the count, one for the sum
// (accumulated in nanoseconds to stay on the integer fast path).
type Histogram struct {
	bounds   []float64 // sorted upper bounds; implicit +Inf bucket after
	counts   []atomic.Uint64
	count    atomic.Uint64
	sumNanos atomic.Int64
}

// NewHistogram returns a histogram over the given sorted upper bounds
// (nil picks LatencyBuckets).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// ObserveDuration records one duration as seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	i := 0
	secs := d.Seconds()
	for i < len(h.bounds) && secs > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNanos.Add(int64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return float64(h.sumNanos.Load()) / 1e9 }

// Bucket is one cumulative histogram bucket at snapshot time.
type Bucket struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// MarshalJSON renders the +Inf upper bound as the string "+Inf";
// encoding/json rejects non-finite float64s, which would otherwise
// abort the whole snapshot.
func (b Bucket) MarshalJSON() ([]byte, error) {
	le := "\"+Inf\""
	if !math.IsInf(b.UpperBound, 1) {
		le = formatFloat(b.UpperBound)
	}
	return []byte(fmt.Sprintf(`{"le":%s,"count":%d}`, le, b.Count)), nil
}

// Buckets returns the cumulative bucket counts (the final entry is the
// +Inf bucket and equals Count, modulo in-flight observations).
func (h *Histogram) Buckets() []Bucket {
	out := make([]Bucket, len(h.bounds)+1)
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		out[i] = Bucket{UpperBound: ub, Count: cum}
	}
	return out
}
