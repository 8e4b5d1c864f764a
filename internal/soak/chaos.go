package soak

import "math/rand"

// windowChaos is the fault plan for one window: Outage zeroes the
// replay rate for the window (the sideband to the controller is down —
// the Degraded regime), Churn deletes and re-installs one hot rule at
// the window barrier (both are applied against the owning shard's
// partition without ever misclassifying a hot flow).
type windowChaos struct {
	Outage bool
	Churn  bool
}

// Per-window fault probabilities of a chaos run.
const (
	churnProb  = 0.10 // rule-churn windows
	outageProb = 0.04 // replay outage windows
)

// chaosPlan derives the whole run's fault schedule up front from one
// seeded generator — one decision per window, so the plan is a pure
// function of the seed and the run reproduces exactly. The first and
// last tenth of the run stay clean: baselines need to form before
// faults land, and the tail is reserved for heal/drain deadlines.
func chaosPlan(cfg *Config) []windowChaos {
	w := cfg.Windows()
	plan := make([]windowChaos, w)
	if !cfg.Chaos {
		return plan
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed_c4a0))
	lo, hi := w/10, w-w/10
	for i := range plan {
		// The clean head and tail draw too, so the stream does not
		// depend on where they end. A window that does not churn spends
		// three draws before its outage draw: the plan keeps the draw
		// order of the five-fault injector it was first drawn from
		// (drop, delay, truncate, error, disconnect), so every seeded
		// soak keeps its schedule.
		churn, outage := rng.Float64() < churnProb, false
		if !churn {
			rng.Float64()
			rng.Float64()
			rng.Float64()
			outage = rng.Float64() < outageProb
		}
		if i < lo || i >= hi {
			continue
		}
		switch {
		case outage:
			// Never two outages back to back: the drain deadline of the
			// first must be observable before the next hole opens.
			if i > 0 && plan[i-1].Outage {
				continue
			}
			plan[i].Outage = true
		case churn:
			plan[i].Churn = true
		}
	}
	return plan
}
