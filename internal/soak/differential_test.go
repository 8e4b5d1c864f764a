package soak_test

// Differential tier: the sharded run-to-completion Engine and the
// single-goroutine Baseline must tell the same story when driven with
// the same seeded soak scenario — equal conservation totals at every
// window barrier and identical attribution verdicts — at 1, 2, and 4
// shards. HeavyHitterFrac is pinned near 1 so the drop-time hint
// reduces to the port verdict (per-window port counts are identical
// across the two pipelines by construction; the heavy-hitter summary's
// *contents* are merge-order-sensitive and deliberately out of scope).

import (
	"testing"
	"time"

	"floodguard/internal/soak"
)

func diffCfg(shards int) soak.Config {
	return soak.Config{
		Seed:            0xD1FF,
		Duration:        2 * time.Second,
		Window:          100 * time.Millisecond,
		Flows:           20_000,
		HotFlows:        128,
		Ports:           8,
		Shards:          shards,
		Profile:         soak.ProfileAll,
		BenignPPS:       20_000,
		Chaos:           true,
		HeavyHitterFrac: 0.99,
		// Barrier rule churn rides along so the differential also covers
		// the shard-owned apply path: the engine routes each flow_mod to
		// its owning shard's control ring, the baseline takes the lock,
		// and both must land on identical per-window stats.
		FlowModsPerWindow: 16,
	}
}

// normalized strips the fields whose values legitimately depend on the
// pipeline architecture: the heavy-hitter summary contents depend on
// merge order.
func normalized(ws soak.WindowStats) soak.WindowStats {
	ws.TrackedSources = 0
	return ws
}

func TestDifferentialEngineVsBaseline(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		shards := shards
		t.Run(map[int]string{1: "shards-1", 2: "shards-2", 4: "shards-4"}[shards], func(t *testing.T) {
			t.Parallel()
			cfg := diffCfg(shards)
			engRes, err := soak.Run(cfg)
			if err != nil {
				t.Fatalf("engine soak: %v", err)
			}
			cfg.Baseline = true
			baseRes, err := soak.Run(cfg)
			if err != nil {
				t.Fatalf("baseline soak: %v", err)
			}
			for _, v := range engRes.Violations {
				t.Errorf("engine violation: %s", v)
			}
			for _, v := range baseRes.Violations {
				t.Errorf("baseline violation: %s", v)
			}
			if len(engRes.Windows) != len(baseRes.Windows) {
				t.Fatalf("window counts differ: engine %d, baseline %d", len(engRes.Windows), len(baseRes.Windows))
			}
			for w := range engRes.Windows {
				e, b := normalized(engRes.Windows[w]), normalized(baseRes.Windows[w])
				if e != b {
					t.Fatalf("window %d diverged\n engine:   %+v\n baseline: %+v", w, e, b)
				}
			}
			if engRes.Detected != baseRes.Detected {
				t.Errorf("detection verdicts differ: engine %v, baseline %v", engRes.Detected, baseRes.Detected)
			}
			if engRes.DistinctFlows != baseRes.DistinctFlows {
				t.Errorf("distinct flows differ: engine %d, baseline %d", engRes.DistinctFlows, baseRes.DistinctFlows)
			}
			if !engRes.Detected {
				t.Errorf("differential run never blamed an above-floor attacker — verdict comparison is vacuous")
			}
		})
	}
}
