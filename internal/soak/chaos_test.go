package soak

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// injectorPlan is the chaos plan as the soak first drew it: a
// five-fault injector (drop, delay, truncate, error, disconnect; first
// match wins, one draw per knob) with only drop and disconnect armed,
// one decision per window, drops as churn and disconnects as outages.
func injectorPlan(cfg *Config) []windowChaos {
	const (
		dropProb, delayProb, truncateProb, errorProb, disconnectProb = 0.10, 0, 0, 0, 0.04
		maxDelay                                                     = 5 * time.Millisecond
	)
	const (
		none = iota
		drop
		disconnect
	)
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed_c4a0))
	decide := func() int {
		if rng.Float64() < dropProb {
			return drop
		}
		if rng.Float64() < delayProb {
			rng.Int63n(int64(maxDelay))
			return none
		}
		if rng.Float64() < truncateProb {
			return none
		}
		if rng.Float64() < errorProb {
			return none
		}
		if rng.Float64() < disconnectProb {
			return disconnect
		}
		return none
	}
	w := cfg.Windows()
	plan := make([]windowChaos, w)
	lo, hi := w/10, w-w/10
	for i := range plan {
		d := decide()
		if i < lo || i >= hi {
			continue
		}
		switch d {
		case disconnect:
			if i > 0 && plan[i-1].Outage {
				continue
			}
			plan[i].Outage = true
		case drop:
			plan[i].Churn = true
		}
	}
	return plan
}

// TestChaosPlanMatchesInjector pins the folded chaos plan to the
// injector's draw stream: over 1 000 seeds of a 600-window run, every
// window's outage and churn decision must be the injector's.
func TestChaosPlanMatchesInjector(t *testing.T) {
	cfg := Config{Chaos: true, Duration: 60 * time.Second, Window: 100 * time.Millisecond}
	if w := cfg.Windows(); w != 600 {
		t.Fatalf("windows = %d, want 600", w)
	}
	outages, churns := 0, 0
	for i := int64(0); i < 1000; i++ {
		cfg.Seed = 0xF100D + i*0x10001
		got, want := chaosPlan(&cfg), injectorPlan(&cfg)
		if !slices.Equal(got, want) {
			w := 0
			for got[w] == want[w] {
				w++
			}
			t.Fatalf("seed %#x: window %d plan = %+v, injector = %+v", cfg.Seed, w, got[w], want[w])
		}
		for _, c := range got {
			if c.Outage {
				outages++
			}
			if c.Churn {
				churns++
			}
		}
	}
	// Both fault kinds must fire, or the comparison proves nothing.
	if outages == 0 || churns == 0 {
		t.Fatalf("outage windows %d, churn windows %d: want both > 0", outages, churns)
	}
}
