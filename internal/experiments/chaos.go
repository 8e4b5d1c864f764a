package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"floodguard/internal/core"
	"floodguard/internal/dpcache"
	"floodguard/internal/switchsim"
)

// ChaosFlap is one measured sideband outage: the channel between the
// controller-side guard and the data plane cache is cut mid-Defense,
// held down for Down, then healed. Recovery is the time from heal until
// the controller's direct packet_in rate collapses back under the
// detection threshold — i.e. until the re-installed migration rules are
// absorbing the flood again.
type ChaosFlap struct {
	Index int
	// At is the virtual time of the cut, measured from scenario start.
	At   time.Duration
	Down time.Duration
	// Drops counts packet_ins shed by the degraded direct rate limiter
	// during this outage.
	Drops    uint64
	Recovery time.Duration
}

// ChaosResult aggregates a seeded sideband-flap scenario: a sustained
// flood with repeated cache-channel outages, then attack end and drain.
type ChaosResult struct {
	Seed      int64
	AttackPPS float64
	Flaps     []ChaosFlap
	// DegradedEntries / DegradedDrops / Replayed are the guard's own
	// counters after the run (DegradedEntries must equal len(Flaps)).
	DegradedEntries uint64
	DegradedDrops   uint64
	Replayed        uint64
	Cache           dpcache.Stats
	// DrainTime is attack end → FSM back at Idle with the cache drained.
	DrainTime time.Duration
	// Drained reports whether the scenario wound down completely.
	Drained bool
	// Windows is the per-window telemetry timeline sampled across the
	// whole scenario (attack, flaps, drain) at 100ms resolution.
	Windows []TelemetryWindow
}

// RunChaos runs the chaos scenario: the Figure 9 topology under a
// 200pps UDP flood, with `flaps` seeded sideband outages while Defense
// is active. Down/up durations are drawn from the seeded generator, so
// a given (seed, flaps) pair is fully reproducible.
func RunChaos(seed int64, flaps int) (*ChaosResult, error) {
	guardCfg := DefaultGuardConfig()
	// Degraded direct budget well under the flood rate: the limiter must
	// visibly shed during every outage.
	guardCfg.DegradedMaxPPS = 40
	cfg := TestbedConfig{
		Profile:            switchsim.SoftwareProfile(),
		WithFloodGuard:     true,
		GuardConfig:        guardCfg,
		ControllerBaseCost: 200 * time.Microsecond,
		FloodSeed:          seed,
	}
	tb, err := NewTestbed(cfg)
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	tb.WarmUp()

	const attackPPS = 200
	start := tb.Eng.Now()
	sampler := sampleWindows(tb, 100*time.Millisecond)
	tb.Flooder.Start(attackPPS)
	tb.Eng.RunFor(2 * time.Second)

	res := &ChaosResult{Seed: seed, AttackPPS: attackPPS}
	rng := rand.New(rand.NewSource(seed))
	threshold := guardCfg.Detection.RateThresholdPPS
	for i := 0; i < flaps; i++ {
		flap := ChaosFlap{Index: i, At: tb.Eng.Now().Sub(start)}
		drops0 := tb.Guard.DegradedDrops()

		// The engine parks the virtual clock between RunFor calls, so
		// flipping reachability here is in-discipline with engine events.
		tb.Guard.SetCacheReachable(false)
		flap.Down = 150*time.Millisecond + time.Duration(rng.Intn(400))*time.Millisecond
		tb.Eng.RunFor(flap.Down)
		tb.Guard.SetCacheReachable(true)
		flap.Drops = tb.Guard.DegradedDrops() - drops0

		// Recovery: step until the direct packet_in rate is back under
		// the detection threshold (migration rules absorbing again).
		healed := tb.Eng.Now()
		for tb.Guard.PacketInRate() >= threshold && tb.Eng.Now().Sub(healed) < 5*time.Second {
			tb.Eng.RunFor(10 * time.Millisecond)
		}
		flap.Recovery = tb.Eng.Now().Sub(healed)
		res.Flaps = append(res.Flaps, flap)

		// Hold the channel up before the next cut so Defense re-settles.
		tb.Eng.RunFor(150*time.Millisecond + time.Duration(rng.Intn(400))*time.Millisecond)
	}

	tb.Flooder.Stop()
	attackEnd := tb.Eng.Now()
	cache := tb.Guard.Cache()
	for tb.Eng.Now().Sub(attackEnd) < 2*time.Minute {
		tb.Eng.RunFor(time.Second)
		if tb.Guard.State() == core.StateIdle && cache.Drained() {
			break
		}
	}
	res.DrainTime = tb.Eng.Now().Sub(attackEnd)
	res.DegradedEntries = tb.Guard.DegradedEntries()
	res.DegradedDrops = tb.Guard.DegradedDrops()
	res.Replayed = tb.Guard.Replayed()
	res.Cache = cache.Stats()
	res.Drained = tb.Guard.State() == core.StateIdle && cache.Drained()
	res.Windows = sampler.stop()
	return res, nil
}

// Print renders the chaos scenario as the per-flap table plus totals.
func (r *ChaosResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Chaos scenario: %0.0fpps flood, %d sideband flaps (seed %d)\n",
		r.AttackPPS, len(r.Flaps), r.Seed)
	fmt.Fprintf(w, "%-6s %-10s %-10s %-10s %-10s\n", "flap", "at(s)", "down(s)", "drops", "recov(s)")
	for _, f := range r.Flaps {
		fmt.Fprintf(w, "%-6d %-10.3f %-10.3f %-10d %-10.3f\n",
			f.Index, f.At.Seconds(), f.Down.Seconds(), f.Drops, f.Recovery.Seconds())
	}
	fmt.Fprintf(w, "degraded entries %d, degraded drops %d, replayed %d\n",
		r.DegradedEntries, r.DegradedDrops, r.Replayed)
	fmt.Fprintf(w, "cache: enqueued %d, emitted %d, dropped %d\n",
		r.Cache.Enqueued, r.Cache.Emitted, r.Cache.Dropped)
	fmt.Fprintf(w, "drain after attack end: %0.3fs (drained=%v)\n", r.DrainTime.Seconds(), r.Drained)
}
