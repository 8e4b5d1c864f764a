package core

import (
	"time"

	"floodguard/internal/attrib"
	"floodguard/internal/dpcache"
)

// DetectionConfig parameterises the migration agent's flood detector. The
// paper's detector combines the real-time packet_in rate with
// infrastructure utilization (switch buffer memory, controller load) so
// that an attacker who floods slowly but exhausts resources is still
// caught (§IV.C.1).
type DetectionConfig struct {
	// SampleInterval is the detector's polling period.
	SampleInterval time.Duration
	// RateThresholdPPS normalises the packet_in rate component: rate at
	// which the component alone reaches the threshold.
	RateThresholdPPS float64
	// UtilizationThreshold normalises the utilization component (buffer
	// occupancy fraction and controller backlog fraction).
	UtilizationThreshold float64
	// BacklogReference converts controller work backlog into a
	// utilization fraction (backlog == reference ⇒ 1.0).
	BacklogReference time.Duration
	// TriggerSamples is how many consecutive over-threshold samples
	// declare the attack.
	TriggerSamples int
	// QuietPeriod is how long the score must stay below threshold before
	// the attack is declared over.
	QuietPeriod time.Duration
}

// DefaultDetection returns thresholds calibrated for the bundled switch
// profiles.
func DefaultDetection() DetectionConfig {
	return DetectionConfig{
		SampleInterval:       50 * time.Millisecond,
		RateThresholdPPS:     60,
		UtilizationThreshold: 0.5,
		BacklogReference:     200 * time.Millisecond,
		TriggerSamples:       2,
		QuietPeriod:          time.Second,
	}
}

// UpdateStrategy selects when the analyzer re-derives proactive rules
// after global state changes (paper §IV.D's performance/accuracy
// tradeoff).
type UpdateStrategy int

// Update strategies.
const (
	// UpdateEveryChange re-derives on every state version bump: maximum
	// accuracy, maximum overhead.
	UpdateEveryChange UpdateStrategy = iota + 1
	// UpdateEveryN re-derives after every N version bumps.
	UpdateEveryN
	// UpdateInterval re-derives at a fixed period regardless of change
	// count.
	UpdateInterval
)

// String names the strategy.
func (u UpdateStrategy) String() string {
	switch u {
	case UpdateEveryChange:
		return "every-change"
	case UpdateEveryN:
		return "every-n"
	case UpdateInterval:
		return "interval"
	default:
		return "unknown"
	}
}

// AnalyzerConfig parameterises the proactive flow rule analyzer.
type AnalyzerConfig struct {
	// Strategy picks the §IV.D update policy.
	Strategy UpdateStrategy
	// EveryN applies when Strategy == UpdateEveryN.
	EveryN uint64
	// TrackInterval is the application tracker's polling period (also
	// the period for UpdateInterval).
	TrackInterval time.Duration
	// RulesInCache enables the §IV.E design option: proactive rules are
	// installed into the data plane cache instead of switch TCAM.
	RulesInCache bool
	// ModeledDeriveLatency, when positive, is the derivation latency the
	// guard charges to virtual time for the Init→Defense handoff instead
	// of the measured wall-clock cost. Measured cost tracks the host
	// (cold caches, GC, load), so simulations that must be reproducible —
	// the sharded sweeps in particular — pin this to a fixed figure.
	ModeledDeriveLatency time.Duration
}

// DefaultAnalyzer returns the paper-faithful configuration.
func DefaultAnalyzer() AnalyzerConfig {
	return AnalyzerConfig{
		Strategy:      UpdateEveryChange,
		TrackInterval: 20 * time.Millisecond,
	}
}

// RateLimitConfig governs the agent's control of the cache's packet_in
// generation rate.
type RateLimitConfig struct {
	// MinPPS and MaxPPS bound the replay rate.
	MinPPS float64
	MaxPPS float64
	// TargetBacklog is the controller work backlog the agent steers
	// toward: above it the rate halves, below half of it the rate grows.
	TargetBacklog time.Duration
	// Growth is the multiplicative increase factor when headroom exists.
	Growth float64
	// AdjustInterval is how often the rate is revisited.
	AdjustInterval time.Duration
}

// DefaultRateLimit returns an AIMD-style controller-protecting policy.
func DefaultRateLimit() RateLimitConfig {
	return RateLimitConfig{
		MinPPS:         10,
		MaxPPS:         200,
		TargetBacklog:  50 * time.Millisecond,
		Growth:         1.25,
		AdjustInterval: 100 * time.Millisecond,
	}
}

// AttributionConfig arms the attack attribution subsystem.
type AttributionConfig struct {
	// Enabled runs the attribution engine: sampled packet_in headers feed
	// per-port blame detectors and per-source sketches, the caches split
	// their queues benign/suspect on its verdicts (benign-priority
	// replay), and blame telemetry is exported.
	Enabled bool
	// Selective switches migration from blanket (every ingress port
	// diverted on detection) to selective: only ports attribution blames
	// get diversion rules, and each port's rules are withdrawn as its
	// blame heals — benign ports keep their direct path to the
	// controller. Requires Enabled; ignored under DisableINPORTTag,
	// whose single untagged rule cannot discriminate ports.
	Selective bool
	// Params tunes the engine (zero values pick attrib defaults).
	Params attrib.Config
}

// Config assembles a Guard.
type Config struct {
	Detection   DetectionConfig
	Analyzer    AnalyzerConfig
	RateLimit   RateLimitConfig
	Attribution AttributionConfig
	Cache       dpcache.Config
	// CachePort is the switch port number the data plane cache attaches
	// to on every protected switch.
	CachePort uint16
	// DisableINPORTTag is an ablation knob: install ONE untagged
	// wildcard migration rule instead of the paper's per-ingress-port
	// TOS-tagging rules. The original INPORT is then lost in migration
	// (§IV.C.1's "obvious challenge"), so replayed packet_ins carry
	// in_port 0 and learning apps poison their state.
	DisableINPORTTag bool
	// DegradedMaxPPS bounds direct packet_in dispatch while the guard is
	// in the degraded fallback (cache unreachable): table-miss packets
	// flow straight to the controller again, and everything beyond this
	// budget per detection window is dropped at the platform layer. Zero
	// falls back to RateLimit.MaxPPS — the same ceiling the cache replay
	// path honours, so degradation never admits more load than Defense.
	DegradedMaxPPS float64
}

// DefaultConfig returns the paper-faithful configuration.
func DefaultConfig() Config {
	return Config{
		Detection: DefaultDetection(),
		Analyzer:  DefaultAnalyzer(),
		RateLimit: DefaultRateLimit(),
		Cache:     dpcache.DefaultConfig(),
		CachePort: 63,
	}
}
