package soak

import (
	"floodguard/internal/faultinject"
)

// windowChaos is the fault plan for one window: Outage zeroes the
// replay rate for the window (the sideband to the controller is down —
// the Degraded regime), Churn deletes and re-installs one hot rule at
// the window barrier (the owning shard applies both in-band without ever
// misclassifying a hot flow).
type windowChaos struct {
	Outage bool
	Churn  bool
}

// chaosPlan derives the whole run's fault schedule up front from a
// seeded faultinject.Injector — one Decide per window, so the plan is a
// pure function of the seed and the run reproduces exactly. The first
// and last tenth of the run stay clean: baselines need to form before
// faults land, and the tail is reserved for heal/drain deadlines.
func chaosPlan(cfg *Config) []windowChaos {
	w := cfg.Windows()
	plan := make([]windowChaos, w)
	if !cfg.Chaos {
		return plan
	}
	inj := faultinject.New(faultinject.Config{
		Seed:           cfg.Seed ^ 0x5eed_c4a0,
		DisconnectProb: 0.04, // replay outage windows
		DropProb:       0.10, // rule-churn windows
	})
	lo, hi := w/10, w-w/10
	for i := range plan {
		d := inj.Decide(0)
		if i < lo || i >= hi {
			continue
		}
		switch d.Fault {
		case faultinject.FaultDisconnect:
			// Never two outages back to back: the drain deadline of the
			// first must be observable before the next hole opens.
			if i > 0 && plan[i-1].Outage {
				continue
			}
			plan[i].Outage = true
		case faultinject.FaultDrop:
			plan[i].Churn = true
		}
	}
	return plan
}
