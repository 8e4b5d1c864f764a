package soak

import (
	"testing"
	"time"
)

// tierACfg is the seconds-scale deterministic soak configuration the
// tier-A tests share: small flow population, short virtual run, but the
// full window-by-window invariant catalog.
func tierACfg(profile Profile) Config {
	return Config{
		Seed:      0xF100D,
		Duration:  2 * time.Second,
		Window:    100 * time.Millisecond,
		Flows:     20_000,
		HotFlows:  128,
		Ports:     8,
		Shards:    2,
		Profile:   profile,
		BenignPPS: 20_000,
	}
}

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("soak run: %v", err)
	}
	for i, v := range res.Violations {
		if i >= 10 {
			t.Errorf("... and %d more violations", len(res.Violations)-i)
			break
		}
		t.Errorf("invariant violation: %s", v)
	}
	return res
}

// TestSoakProfiles runs the tier-A soak once per attacker profile and
// requires a clean invariant sheet: conservation at every seam, the
// benign-loss ceiling, the memory budgets, and the liveness deadlines,
// all checked every window.
func TestSoakProfiles(t *testing.T) {
	for _, p := range Profiles() {
		p := p
		t.Run(string(p), func(t *testing.T) {
			t.Parallel()
			res := mustRun(t, tierACfg(p))
			if res.DistinctFlows < res.Config.Flows/2 {
				t.Errorf("distinct flows = %d, want >= %d (tail sweep not covering)", res.DistinctFlows, res.Config.Flows/2)
			}
			if !res.Detected {
				t.Errorf("above-floor attacker was never blamed")
			}
			if len(res.Windows) != res.Config.Windows() {
				t.Errorf("windows = %d, want %d", len(res.Windows), res.Config.Windows())
			}
			last := res.Windows[len(res.Windows)-1]
			if last.Processed == 0 || last.Misses == 0 || last.Replayed == 0 {
				t.Errorf("degenerate run: processed=%d misses=%d replayed=%d", last.Processed, last.Misses, last.Replayed)
			}
		})
	}
}

// TestSoakAllProfilesWithChaos composes all four attackers with the
// seeded chaos plan (replay outages + rule churn) — the full adversarial
// mix — and still demands a clean sheet.
func TestSoakAllProfilesWithChaos(t *testing.T) {
	cfg := tierACfg(ProfileAll)
	cfg.Chaos = true
	if !testing.Short() {
		cfg.Duration = 4 * time.Second
		cfg.Flows = 50_000
	}
	res := mustRun(t, cfg)
	if !res.Detected {
		t.Errorf("above-floor attackers were never blamed")
	}
	last := res.Windows[len(res.Windows)-1]
	if last.DroppedSuspect == 0 {
		t.Errorf("suspect queues never shed under the full attack mix — defense not engaged")
	}
	// Benign priority: the benign queue drains (loss ~0 is already an
	// invariant) while the suspect side congests mid-attack.
	peakSuspect := 0
	for _, ws := range res.Windows {
		if ws.SuspectBacklog > peakSuspect {
			peakSuspect = ws.SuspectBacklog
		}
	}
	if peakSuspect == 0 {
		t.Errorf("suspect queues never congested under a sustained attack mix — hint split not engaged")
	}
	// Chaos must actually have fired for the run to mean anything.
	outages, churns := 0, 0
	for _, c := range chaosPlan(&res.Config) {
		if c.Outage {
			outages++
		}
		if c.Churn {
			churns++
		}
	}
	if outages == 0 && churns == 0 {
		t.Skip("seeded chaos plan empty for this seed/length; covered by longer tiers")
	}
}

// TestSoakFlowModChurn runs the tier-A soak with sustained barrier
// churn — 32 hot flows strict-deleted and re-installed every window via
// the shard-owned apply path — and demands the same clean invariant
// sheet: conservation at every seam and the benign-loss ceiling must
// survive rules being torn down and rebuilt under load.
func TestSoakFlowModChurn(t *testing.T) {
	t.Run("engine", func(t *testing.T) {
		cfg := tierACfg(ProfileAll)
		cfg.FlowModsPerWindow = 32
		res := mustRun(t, cfg)
		if !res.Detected {
			t.Errorf("above-floor attackers were never blamed under churn")
		}
		last := res.Windows[len(res.Windows)-1]
		if last.Processed == 0 || last.Misses == 0 {
			t.Errorf("degenerate churn run: processed=%d misses=%d", last.Processed, last.Misses)
		}
		// Every deleted rule was re-installed, so the table must end
		// at full strength: churn must not leak or lose rules.
		if last.TableRules != cfg.HotFlows {
			t.Errorf("table rules after churn = %d, want %d", last.TableRules, cfg.HotFlows)
		}
	})
}

// TestSoakScenarioRoundTrip pins the parser on a representative string.
func TestSoakScenarioRoundTrip(t *testing.T) {
	cfg, err := ParseScenario("profile=rotate,duration=3s,window=50ms,flows=1000,ports=4,seed=0x7,chaos=on,benign_pps=8000,flowmods=16," +
		"tcpguard=on,synflood=160,slowshake=5,malformed=10,tcp_conns=32")
	if err != nil {
		t.Fatalf("ParseScenario: %v", err)
	}
	if cfg.Profile != ProfileRotate || cfg.Duration != 3*time.Second || cfg.Window != 50*time.Millisecond ||
		cfg.Flows != 1000 || cfg.Ports != 4 || cfg.Seed != 7 || !cfg.Chaos || cfg.BenignPPS != 8000 ||
		cfg.FlowModsPerWindow != 16 || !cfg.TCPGuardOn || cfg.SynFloodPPS != 160 ||
		cfg.SlowShakePPS != 5 || cfg.MalformedPPS != 10 || cfg.TCPConns != 32 {
		t.Fatalf("ParseScenario round-trip mismatch: %+v", cfg)
	}
	for _, bad := range []string{
		"duration=-5s", "window=0s", "benign_pps=-1", "benign_pps=nan",
		"flows=0", "ports=200", "profile=nope", "garbage", "chaos=maybe",
		"duration=50ms,window=1s", "zipf_s=0.5", "loss_ceiling=2",
		"flowmods=-1", "flowmods=x",
		"tcpguard=maybe", "baseline=on", "synflood=-1",
		"slowshake=nan", "malformed=-0.5", "tcp_conns=-1",
	} {
		if _, err := ParseScenario(bad); err == nil {
			t.Errorf("ParseScenario(%q) accepted a malformed scenario", bad)
		}
	}
}
