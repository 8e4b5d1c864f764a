package telemetry

import (
	"sync/atomic"
	"time"
)

// Stage identifies one hop of the packet lifecycle through the
// FloodGuard pipeline:
//
//	packet_in → migration divert → cache enqueue → scheduler dequeue
//	          → controller re-raise → flow install
//
// Each traced stage aggregates into its own latency histogram. The
// migration divert itself is instantaneous at the switch (a table-miss
// redirect), so it is exposed as a counter rather than a latency stage.
type Stage int

// Pipeline stages, in packet order.
const (
	// StagePacketIn: table miss at the switch until the packet_in
	// reaches the controller/guard.
	StagePacketIn Stage = iota
	// StageCacheWait: residence in the data-plane cache, enqueue to
	// scheduler dequeue.
	StageCacheWait
	// StageReraise: replay delivery until the guard re-raises the
	// packet_in into the controller.
	StageReraise
	// StageFlowInstall: controller decision start until the flow_mod is
	// enacted at the switch.
	StageFlowInstall

	numStages
)

// String returns the metric-name fragment for the stage.
func (s Stage) String() string {
	switch s {
	case StagePacketIn:
		return "packet_in"
	case StageCacheWait:
		return "cache_wait"
	case StageReraise:
		return "reraise"
	case StageFlowInstall:
		return "flow_install"
	default:
		return "unknown"
	}
}

// Tracer samples packet lifecycles and aggregates per-stage latencies
// into histograms. It is nil-safe: a nil *Tracer reports Sample()=false
// and ignores observations, so instrumented code needs no telemetry
// guard branches beyond the single nil-check the method itself does.
//
// Sampling is a single atomic increment plus a modulo — the untraced
// majority of packets pay one atomic op and zero allocations.
type Tracer struct {
	every uint64
	tick  atomic.Uint64
	hist  [numStages]*Histogram
}

// NewTracer returns a tracer sampling one in `every` packets (minimum
// 1 = trace all), registering one histogram per stage under
// `fg_pipeline_seconds{stage="..."}`.
func NewTracer(reg *Registry, every int) *Tracer {
	if every < 1 {
		every = 1
	}
	t := &Tracer{every: uint64(every)}
	for s := Stage(0); s < numStages; s++ {
		t.hist[s] = NewHistogram(nil)
		if reg != nil {
			reg.RegisterHistogram(
				`fg_pipeline_seconds{stage="`+s.String()+`"}`,
				"Per-stage packet pipeline latency in seconds (sampled).",
				t.hist[s])
		}
	}
	return t
}

// Sample reports whether the current packet should carry trace
// timestamps. False on a nil tracer.
func (t *Tracer) Sample() bool {
	if t == nil {
		return false
	}
	return t.tick.Add(1)%t.every == 0
}

// Observe records a stage latency for a sampled packet. No-op on a nil
// tracer or out-of-range stage.
func (t *Tracer) Observe(s Stage, d time.Duration) {
	if t == nil || s < 0 || s >= numStages {
		return
	}
	t.hist[s].ObserveDuration(d)
}

// Histogram returns the aggregate histogram for a stage (nil on a nil
// tracer or out-of-range stage); test/exposition helper.
func (t *Tracer) Histogram(s Stage) *Histogram {
	if t == nil || s < 0 || s >= numStages {
		return nil
	}
	return t.hist[s]
}
