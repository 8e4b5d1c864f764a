package soak

// Coverage-guided fuzzing of the soak scenario parser — the only soak
// surface that consumes attacker-controlled text (the `fgsim soak
// -profile` flag and CI scenario strings). The parser must never panic,
// and anything it accepts must already satisfy the same Validate the
// runner would apply: a scenario string that parses but then blows up
// inside Run is a parser bug, not a runner bug.

import (
	"testing"
)

func FuzzParseScenario(f *testing.F) {
	seeds := []string{
		"",
		"profile=rotate,duration=3s,window=50ms,flows=1000,ports=4,seed=0x7,chaos=on,benign_pps=8000",
		"profile=all,duration=60s,flows=1048576,shards=4",
		"seed=42,hot_flows=256,attack_factor=6,zipf_share=0.5,zipf_s=1.2",
		"replay_pps=80000,queue_capacity=8192,loss_ceiling=0.01,flowmods=8",
		"duration=-5s", "window=0s", "benign_pps=nan", "flows=0", "ports=200",
		"profile=nope", "garbage", "chaos=maybe", "duration=50ms,window=1s",
		"zipf_s=0.5", "loss_ceiling=2", "seed=0xzz", "flows=99999999999999999999",
		"=,=,=", "duration=1s,duration=2s", "benign_pps=1e300,window=1h,duration=1h",
		"tcpguard=on,synflood=160,slowshake=5,malformed=10,tcp_conns=32",
		"tcpguard=on,baseline=on", "tcpguard=maybe", "synflood=-1",
		"slowshake=nan", "malformed=1e300", "tcp_conns=-2",
		"profile=slow,tcpguard=on,tcp_conns=8,duration=1s,window=100ms",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		cfg, err := ParseScenario(s)
		if err != nil {
			return
		}
		// Accepted scenarios must be runnable as-is: normalized, within
		// every budget Validate polices, and cheap to re-validate.
		if verr := cfg.Validate(); verr != nil {
			t.Fatalf("ParseScenario(%q) accepted a config Validate rejects: %v", s, verr)
		}
		if cfg.Windows() < 1 {
			t.Fatalf("ParseScenario(%q): %d windows", s, cfg.Windows())
		}
		if cfg.Ports > maxPorts {
			t.Fatalf("ParseScenario(%q): %d ports > TOS tag budget %d", s, cfg.Ports, maxPorts)
		}
		// Normalize must be idempotent: a second pass cannot change an
		// already-normalized config (the runner calls it again inside Run).
		again := cfg
		again.Normalize()
		if again != cfg {
			t.Fatalf("Normalize not idempotent for %q:\n first: %+v\n again: %+v", s, cfg, again)
		}
	})
}
