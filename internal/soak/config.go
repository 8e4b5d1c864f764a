// Package soak is the adversarial soak harness: it drives the
// run-to-completion engine with zipfian benign traffic over millions of
// distinct flows, adaptive attacker profiles (ramp, pulse, rotate-source,
// slow-DDoS) and chaos flaps, steps the Guard's decision policy
// (core.Policy) at every window barrier, and asserts a catalog of
// invariants *every window*: packet conservation across the
// shard/cache/replay pipeline, a benign collateral-loss ceiling, bounded
// memory for every summarising structure, and detection liveness
// (attacks get blamed, blame heals after calm, outage backlogs drain).
//
// The harness runs the engine in rtc manual mode, on its own goroutine
// alone: it runs every shard's body itself, simulated time only advances
// at window barriers, the shard attribution flush is a function call,
// and the detection window is rolled by the harness — one goroutine, one
// order, so two runs with the same seed produce byte-identical
// per-window output, which the determinism tier pins.
package soak

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"floodguard/internal/telemetry"
)

// Profile names an attacker behaviour.
type Profile string

// Attacker profiles. ProfileAll composes every adaptive attacker in one
// run (each on its own ingress port).
const (
	// ProfileRamp grows linearly from zero to peak — the classic flood
	// with a slow onset that stresses CUSUM accumulation.
	ProfileRamp Profile = "ramp"
	// ProfilePulse alternates on/off bursts and goes quiet whenever its
	// port is blamed — the detector-dodging duty-cycle attacker.
	ProfilePulse Profile = "pulse"
	// ProfileRotate floods at a constant rate while rotating its source
	// address every window to dodge the heavy-hitter sketch, then stops
	// mid-run so the heal path is exercised.
	ProfileRotate Profile = "rotate"
	// ProfileSlow sends just below the attribution rate floor for the
	// whole run — the Lukaseder-style slow DDoS that must degrade
	// gracefully (bounded benign impact) without ever being blamed.
	ProfileSlow Profile = "slow"
	// ProfileAll runs all four concurrently.
	ProfileAll Profile = "all"

	// TCP-tier attacker profiles. These are not part of the profile=
	// roster (ProfileAll composition is pinned by the determinism tier);
	// they are armed by the synflood=/slowshake=/malformed= rate keys and
	// ride on their own ports above the roster.
	//
	// ProfileSynFlood blasts pure SYNs at a fixed absolute rate — the
	// classic state-exhaustion flood the SYN-proxy tier answers
	// statelessly.
	ProfileSynFlood Profile = "synflood"
	// ProfileSlowShake sends low-rate SYNs from one fixed source and
	// never completes a handshake: invisible to the port-rate detector
	// by design, it must be caught by per-source handshake evidence.
	ProfileSlowShake Profile = "slowshake"
	// ProfileMalformed cycles invalid segments — contradictory flags,
	// misaligned option lengths, truncated option TLVs — that the guard
	// classifies and drops.
	ProfileMalformed Profile = "malformed"
)

// Profiles lists the individually selectable attacker profiles.
func Profiles() []Profile {
	return []Profile{ProfileRamp, ProfilePulse, ProfileRotate, ProfileSlow}
}

// Config parameterises one soak run. Zero values pick the defaults
// noted per field; Normalize applies them.
type Config struct {
	// Seed keys every generator in the run (traffic, attackers, chaos).
	Seed int64
	// Duration is the simulated run length (default 5s).
	Duration time.Duration
	// Window is the detection/accounting window (default 100ms).
	Window time.Duration
	// Flows is the benign distinct-flow population (default 100_000).
	Flows int
	// HotFlows is how many head flows get installed rules (default 256,
	// capped to Flows).
	HotFlows int
	// Ports is the benign ingress port count (default 8; ports 1..Ports).
	// Attackers occupy the ports above. Ports+attackers must stay within
	// the TOS tag range (dpcache.MaxTaggablePort).
	Ports int
	// Shards is the engine shard count (default 4).
	Shards int
	// Profile selects the attacker mix (default all).
	Profile Profile
	// BenignPPS is the aggregate benign offered rate in simulated
	// packets/second (default 40_000).
	BenignPPS float64
	// AttackFactor is the adaptive attackers' peak rate as a multiple of
	// the per-port benign rate (default 6; the slow attacker always runs
	// at 2x, below the 3x blame floor).
	AttackFactor float64
	// ZipfShare is the fraction of benign draws taken from the zipf head
	// (the rest sweep the tail sequentially so the distinct-flow
	// population is actually touched; default 0.5).
	ZipfShare float64
	// ZipfS is the zipf skew exponent (> 1; default 1.2).
	ZipfS float64
	// ReplayPPS is the cache replay rate in simulated packets/second
	// (default 2x the expected benign miss rate).
	ReplayPPS float64
	// QueueCapacity bounds each dpcache protocol queue (default 8192).
	QueueCapacity int
	// Chaos enables the fault-schedule flaps (replay outages, rule
	// churn) derived from the seed.
	Chaos bool
	// BenignLossCeiling is the cumulative benign collateral-loss
	// fraction the invariant checker tolerates (default 0.01).
	BenignLossCeiling float64
	// FlowModsPerWindow applies rule churn at every window barrier: this
	// many hot flows, round-robin, are strict-deleted and immediately
	// re-added (two flow_mods each), exercising rule application against
	// the owning shard's partition under sustained traffic. Capped to HotFlows by Normalize; 0 = no churn.
	FlowModsPerWindow int
	// HeavyHitterFrac overrides the attribution heavy-hitter fraction
	// when > 0 (the differential tier pins it high so hint verdicts
	// reduce to port blame, which both pipelines compute identically).
	HeavyHitterFrac float64
	// Journal arms the decision journal and flight recorder; the run's
	// JSONL dump comes back in Result.JournalDump.
	// Deliberately not a scenario key: the CLI owns the artifact path,
	// so it sets this directly.
	Journal bool
	// TCPGuardOn arms the SYN-proxy tier on the engine's shard miss path
	// (scenario key tcpguard=on).
	TCPGuardOn bool
	// SynFloodPPS > 0 adds a ProfileSynFlood attacker at that absolute
	// simulated rate (scenario key synflood=).
	SynFloodPPS float64
	// SlowShakePPS > 0 adds a ProfileSlowShake attacker (scenario key
	// slowshake=).
	SlowShakePPS float64
	// MalformedPPS > 0 adds a ProfileMalformed attacker (scenario key
	// malformed=).
	MalformedPPS float64
	// TCPConns is how many benign TCP connection attempts are offered per
	// window (scenario key tcp_conns=): each is a SYN from the 172.16/12
	// client plan, completed closed-loop at the barrier with the ACK the
	// guard's cookie SYN-ACK asks for (tier on), or left to the replay
	// path (tier off).
	TCPConns int
	// Registry, when set, receives the SLO health engine's state and
	// burn-rate gauges and the engine's attribution series (the existing
	// Prometheus/JSON surface).
	Registry *telemetry.Registry
}

// Normalize applies defaults and derived values in place.
func (c *Config) Normalize() {
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.Window <= 0 {
		c.Window = 100 * time.Millisecond
	}
	if c.Flows <= 0 {
		c.Flows = 100_000
	}
	if c.HotFlows <= 0 {
		c.HotFlows = 256
	}
	if c.HotFlows > c.Flows {
		c.HotFlows = c.Flows
	}
	if c.Ports <= 0 {
		c.Ports = 8
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Profile == "" {
		c.Profile = ProfileAll
	}
	if c.BenignPPS <= 0 {
		c.BenignPPS = 40_000
	}
	if c.AttackFactor <= 0 {
		c.AttackFactor = 6
	}
	if c.ZipfShare <= 0 || c.ZipfShare >= 1 {
		c.ZipfShare = 0.5
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.2
	}
	if c.ReplayPPS <= 0 {
		// Benign misses are the tail share plus the un-ruled part of the
		// head; 2x the whole benign rate comfortably covers them, so
		// benign loss stays a chaos-transient phenomenon, not steady state.
		c.ReplayPPS = 2 * c.BenignPPS
	}
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 8192
	}
	if c.BenignLossCeiling <= 0 {
		c.BenignLossCeiling = 0.01
	}
	if c.FlowModsPerWindow < 0 {
		c.FlowModsPerWindow = 0
	}
	if c.FlowModsPerWindow > c.HotFlows {
		c.FlowModsPerWindow = c.HotFlows
	}
}

// Windows returns the run length in whole windows (at least 1 after
// Normalize).
func (c *Config) Windows() int {
	n := int(c.Duration / c.Window)
	if n < 1 {
		n = 1
	}
	return n
}

// maxPorts is the hard ingress-port budget: the TOS tag encodes ports
// 0..63 and the harness reserves the top ports for attackers.
const maxPorts = 63

// ParseScenario parses a comma-separated key=value scenario string into
// a Config, e.g.
//
//	"profile=rotate,duration=10s,flows=1000000,benign_pps=40000,ports=16,seed=7,chaos=on"
//
// Unknown keys, malformed values, non-positive rates/durations/windows,
// and port counts outside the TOS tag range are errors — this is the
// fuzzed surface guarding the fgsim soak subcommand. An empty string
// yields the defaults.
func ParseScenario(s string) (Config, error) {
	var c Config
	s = strings.TrimSpace(s)
	if s != "" {
		for _, kv := range strings.Split(s, ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return Config{}, fmt.Errorf("soak: scenario term %q is not key=value", kv)
			}
			key = strings.TrimSpace(key)
			val = strings.TrimSpace(val)
			if val == "" {
				return Config{}, fmt.Errorf("soak: scenario key %q has empty value", key)
			}
			if err := applyScenarioKey(&c, key, val); err != nil {
				return Config{}, err
			}
		}
	}
	c.Normalize()
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

func applyScenarioKey(c *Config, key, val string) error {
	switch key {
	case "seed":
		n, err := parseInt64(key, val)
		if err != nil {
			return err
		}
		c.Seed = n
	case "duration":
		d, err := parsePositiveDuration(key, val)
		if err != nil {
			return err
		}
		c.Duration = d
	case "window":
		d, err := parsePositiveDuration(key, val)
		if err != nil {
			return err
		}
		c.Window = d
	case "flows":
		n, err := parsePositiveInt(key, val)
		if err != nil {
			return err
		}
		c.Flows = n
	case "hot_flows":
		n, err := parsePositiveInt(key, val)
		if err != nil {
			return err
		}
		c.HotFlows = n
	case "ports":
		n, err := parsePositiveInt(key, val)
		if err != nil {
			return err
		}
		c.Ports = n
	case "shards":
		n, err := parsePositiveInt(key, val)
		if err != nil {
			return err
		}
		c.Shards = n
	case "profile":
		p := Profile(val)
		switch p {
		case ProfileRamp, ProfilePulse, ProfileRotate, ProfileSlow, ProfileAll:
			c.Profile = p
		default:
			return fmt.Errorf("soak: unknown profile %q (want %v or all)", val, Profiles())
		}
	case "benign_pps":
		f, err := parsePositiveFloat(key, val)
		if err != nil {
			return err
		}
		c.BenignPPS = f
	case "attack_factor":
		f, err := parsePositiveFloat(key, val)
		if err != nil {
			return err
		}
		c.AttackFactor = f
	case "zipf_share":
		f, err := parsePositiveFloat(key, val)
		if err != nil {
			return err
		}
		if f >= 1 {
			return fmt.Errorf("soak: zipf_share %v out of range (0, 1)", f)
		}
		c.ZipfShare = f
	case "zipf_s":
		f, err := parsePositiveFloat(key, val)
		if err != nil {
			return err
		}
		if f <= 1 {
			return fmt.Errorf("soak: zipf_s %v must be > 1", f)
		}
		c.ZipfS = f
	case "replay_pps":
		f, err := parsePositiveFloat(key, val)
		if err != nil {
			return err
		}
		c.ReplayPPS = f
	case "queue_capacity":
		n, err := parsePositiveInt(key, val)
		if err != nil {
			return err
		}
		c.QueueCapacity = n
	case "flowmods":
		n, err := parseNonNegativeInt(key, val)
		if err != nil {
			return err
		}
		c.FlowModsPerWindow = n
	case "chaos":
		switch val {
		case "on", "true", "1":
			c.Chaos = true
		case "off", "false", "0":
			c.Chaos = false
		default:
			return fmt.Errorf("soak: chaos=%q (want on/off)", val)
		}
	case "loss_ceiling":
		f, err := parsePositiveFloat(key, val)
		if err != nil {
			return err
		}
		if f > 1 {
			return fmt.Errorf("soak: loss_ceiling %v out of range (0, 1]", f)
		}
		c.BenignLossCeiling = f
	case "tcpguard":
		switch val {
		case "on", "true", "1":
			c.TCPGuardOn = true
		case "off", "false", "0":
			c.TCPGuardOn = false
		default:
			return fmt.Errorf("soak: tcpguard=%q (want on/off)", val)
		}
	case "synflood":
		f, err := parseNonNegativeFloat(key, val)
		if err != nil {
			return err
		}
		c.SynFloodPPS = f
	case "slowshake":
		f, err := parseNonNegativeFloat(key, val)
		if err != nil {
			return err
		}
		c.SlowShakePPS = f
	case "malformed":
		f, err := parseNonNegativeFloat(key, val)
		if err != nil {
			return err
		}
		c.MalformedPPS = f
	case "tcp_conns":
		n, err := parseNonNegativeInt(key, val)
		if err != nil {
			return err
		}
		c.TCPConns = n
	default:
		return fmt.Errorf("soak: unknown scenario key %q (known: %s)", key, strings.Join(scenarioKeys(), ","))
	}
	return nil
}

func scenarioKeys() []string {
	ks := []string{
		"seed", "duration", "window", "flows", "hot_flows", "ports",
		"shards", "profile", "benign_pps", "attack_factor", "zipf_share",
		"zipf_s", "replay_pps", "queue_capacity", "chaos", "loss_ceiling",
		"flowmods", "tcpguard", "synflood", "slowshake",
		"malformed", "tcp_conns",
	}
	sort.Strings(ks)
	return ks
}

// Validate rejects configurations the harness cannot run. Call after
// Normalize (ParseScenario does both).
func (c *Config) Validate() error {
	if c.Duration < c.Window {
		return fmt.Errorf("soak: duration %v shorter than window %v", c.Duration, c.Window)
	}
	attackers := len(attackersFor(c.Profile)) + c.tcpAttackers()
	if c.Ports+attackers > maxPorts {
		return fmt.Errorf("soak: %d benign ports + %d attacker ports exceed the TOS tag budget of %d", c.Ports, attackers, maxPorts)
	}
	if c.Windows() > 1_000_000 {
		return fmt.Errorf("soak: %d windows (duration/window) is past the harness bound", c.Windows())
	}
	if c.Flows > 1<<24 {
		return fmt.Errorf("soak: %d flows exceed the 10.0.0.0/8 address plan (max %d)", c.Flows, 1<<24)
	}
	perWindow := (c.BenignPPS+float64(attackers)*c.AttackFactor*c.BenignPPS/float64(c.Ports)+
		c.SynFloodPPS+c.SlowShakePPS+c.MalformedPPS)*c.Window.Seconds() + 2*float64(c.TCPConns)
	if perWindow > 50_000_000 {
		return fmt.Errorf("soak: %.0f packets per window is past the harness bound", perWindow)
	}
	return nil
}

// tcpAttackers counts the rate-keyed TCP-tier attackers this config
// arms.
func (c *Config) tcpAttackers() int {
	n := 0
	if c.SynFloodPPS > 0 {
		n++
	}
	if c.SlowShakePPS > 0 {
		n++
	}
	if c.MalformedPPS > 0 {
		n++
	}
	return n
}

func parsePositiveDuration(key, val string) (time.Duration, error) {
	d, err := time.ParseDuration(val)
	if err != nil {
		return 0, fmt.Errorf("soak: %s=%q: %v", key, val, err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("soak: %s=%v must be positive", key, d)
	}
	return d, nil
}

func parsePositiveInt(key, val string) (int, error) {
	n, err := strconv.Atoi(val)
	if err != nil {
		return 0, fmt.Errorf("soak: %s=%q: %v", key, val, err)
	}
	if n <= 0 {
		return 0, fmt.Errorf("soak: %s=%d must be positive", key, n)
	}
	return n, nil
}

func parseNonNegativeInt(key, val string) (int, error) {
	n, err := strconv.Atoi(val)
	if err != nil {
		return 0, fmt.Errorf("soak: %s=%q: %v", key, val, err)
	}
	if n < 0 {
		return 0, fmt.Errorf("soak: %s=%d must be non-negative", key, n)
	}
	return n, nil
}

func parseInt64(key, val string) (int64, error) {
	n, err := strconv.ParseInt(val, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("soak: %s=%q: %v", key, val, err)
	}
	return n, nil
}

func parseNonNegativeFloat(key, val string) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, fmt.Errorf("soak: %s=%q: %v", key, val, err)
	}
	if !(f >= 0) || f > 1e15 {
		return 0, fmt.Errorf("soak: %s=%v must be non-negative and finite", key, f)
	}
	return f, nil
}

func parsePositiveFloat(key, val string) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, fmt.Errorf("soak: %s=%q: %v", key, val, err)
	}
	if !(f > 0) || f > 1e15 {
		return 0, fmt.Errorf("soak: %s=%v must be positive and finite", key, f)
	}
	return f, nil
}
