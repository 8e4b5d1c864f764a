package core

// Graceful degradation: the sideband channel to the data plane cache can
// fail independently of the OpenFlow control channel. Losing it while
// defending must not mean losing the controller — the guard withdraws
// migration (table-miss traffic reaches the controller directly again,
// the paper's pre-migration behavior) and sheds everything beyond a
// fixed per-window budget in packetInHook, then re-migrates as soon as
// the channel heals. The Defense↔Degraded edges extend Figure 3.

// SetCacheReachable reports sideband health to the guard (the chaos
// experiment flaps it on a seeded schedule). It must be invoked on the
// engine/runner goroutine, like every other guard entry point.
// Transitions are edge-triggered: repeated reports of the same health
// are no-ops.
func (g *Guard) SetCacheReachable(ok bool) {
	if g.cacheReachable == ok {
		return
	}
	g.cacheReachable = ok
	if !ok {
		// Replay rides the sideband: without it the caches can only
		// queue, whatever state we are in.
		for _, c := range g.caches {
			c.SetRate(0)
		}
		if g.fsm.State() == StateDefense {
			g.degrade()
		}
		return
	}
	switch g.fsm.State() {
	case StateDegraded:
		g.heal()
	case StateFinish:
		// Drain resumes at the floor rate; adjustRate steers from there.
		for _, c := range g.caches {
			c.SetRate(g.cfg.RateLimit.MinPPS)
		}
	}
}

// CacheReachable returns the last reported sideband health.
func (g *Guard) CacheReachable() bool { return g.cacheReachable }

// degrade enters the direct-fallback mode: Defense → Degraded,
// migration withdrawn so packets flow straight to the controller, cache
// replay parked. Only packetInHook's budget stands between the flood
// and the serial executor now.
func (g *Guard) degrade() {
	if err := g.fsm.to(StateDegraded, g.eng.Now(), "sideband to data plane cache lost; direct rate-limited fallback"); err != nil {
		return
	}
	g.degradedEntries.Inc()
	g.degradedAllowed = 0
	for _, ps := range g.switches {
		g.removeMigration(ps)
	}
	for _, c := range g.caches {
		c.SetRate(0)
	}
}

// heal re-arms the real defense: Degraded → Defense, migration rules
// reinstalled, replay restarted at the floor rate.
func (g *Guard) heal() {
	if err := g.fsm.to(StateDefense, g.eng.Now(), "sideband to data plane cache healed; re-migrating"); err != nil {
		return
	}
	for _, ps := range g.switches {
		g.installMigration(ps)
	}
	for _, c := range g.caches {
		c.SetRate(g.cfg.RateLimit.MinPPS)
	}
}

// degradedWindowBudget is how many packet_ins the degraded fallback
// admits per detection window — the DegradedMaxPPS ceiling (defaulting
// to the replay path's MaxPPS) expressed in window units, floored at
// one so detection never starves entirely.
func (g *Guard) degradedWindowBudget() float64 {
	pps := g.cfg.DegradedMaxPPS
	if pps <= 0 {
		pps = g.cfg.RateLimit.MaxPPS
	}
	b := pps * g.cfg.Detection.SampleInterval.Seconds()
	if b < 1 {
		b = 1
	}
	return b
}
