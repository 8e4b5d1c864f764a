// Sustained-pps macro benchmark: the whole-pipeline throughput and
// latency experiment behind the run-to-completion engine. It drives an
// attack+benign mix through the sharded engine for a wall-clock
// duration, with one producer per shard offering packets as fast as the
// pipeline accepts them, and reports sustained pps, offered load,
// p50/p99 pipeline latency, and the attack-time accounting (forwarded /
// migrated / drops / replayed).
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"floodguard/internal/netpkt"
	"floodguard/internal/openflow"
	"floodguard/internal/rtc"
)

// PPSConfig parameterises a sustained-pps run.
type PPSConfig struct {
	// Shards is the engine shard count (<= 0 picks GOMAXPROCS).
	Shards int
	// Duration is the wall-clock measurement length (default 1s).
	Duration time.Duration
	// Seed keys the generators.
	Seed int64
	// FlowModRate applies rule churn while traffic runs: this many
	// flow_mods per second, alternately strict-deleting and re-adding
	// installed benign flows round-robin across the producers' ports
	// (0 = no churn) — the mixed lookup+Apply scenario.
	FlowModRate float64
}

// The offered mix: one packet in ppsAttackEvery is a spoofed table-miss
// attack packet, the rest cycle through ppsBenignFlows installed flows
// per producer; one packet in rtc.DefaultLatencySample carries a latency
// stamp.
const (
	ppsAttackEvery = 4
	ppsBenignFlows = 32
)

func (c *PPSConfig) normalize() {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// PPSResult is one sustained-pps measurement.
type PPSResult struct {
	Shards   int
	Duration time.Duration

	Offered   uint64 // packets producers tried to inject
	Accepted  uint64 // packets the pipeline took
	Processed uint64
	Forwarded uint64
	Misses    uint64
	RingDrops uint64 // shard→cache handoff drops
	Replayed  uint64 // cache deliveries to the controller path
	CacheDrop uint64 // dpcache queue overflow drops
	Backlog   int    // cache backlog at stop

	FlowMods    uint64 // rule churn mods applied during the run
	FlowModErrs uint64 // churn mods rejected (backpressure/timeout)

	SustainedPPS float64 // processed / duration
	OfferedPPS   float64
	P50, P99     time.Duration
}

// RunPPS executes one sustained-pps measurement.
func RunPPS(cfg PPSConfig) (*PPSResult, error) {
	cfg.normalize()
	eng := rtc.New(rtc.Config{
		Shards:    cfg.Shards,
		ReplayPPS: 10000,
		Window:    50 * time.Millisecond,
	})

	// Per-producer working sets: ppsBenignFlows installed flows on the
	// producer's own port, plus a spoof generator for the attack share.
	// Ports are chosen so producer i owns exactly shard i (port ≡ i mod
	// Shards), honouring the SPSC contract.
	type producer struct {
		port    uint16
		benign  []netpkt.Packet
		spoof   *netpkt.SpoofGen
		offered uint64
	}
	producers := make([]*producer, cfg.Shards)
	for i := range producers {
		port := uint16(i)
		if port == 0 {
			port = uint16(cfg.Shards) // keep port 0 unused; still ≡ 0 mod Shards
		}
		p := &producer{
			port:  port,
			spoof: netpkt.NewSpoofGen(cfg.Seed+int64(1000+i), netpkt.FloodMixed, 0),
		}
		bg := netpkt.NewSpoofGen(cfg.Seed+int64(i), netpkt.FloodUDP, 0)
		for f := 0; f < ppsBenignFlows; f++ {
			pkt := bg.Next()
			if err := eng.Apply(openflow.FlowMod{
				Match:    openflow.ExactFrom(&pkt, p.port),
				Command:  openflow.FlowAdd,
				Priority: 100,
				Actions:  []openflow.Action{openflow.Output(2)},
			}); err != nil {
				return nil, fmt.Errorf("pps: install flow: %w", err)
			}
			p.benign = append(p.benign, pkt)
		}
		producers[i] = p
	}

	eng.Start()
	deadline := time.Now().Add(cfg.Duration)

	// Rule churn: one control-plane goroutine strict-deletes and
	// re-adds installed benign flows at FlowModRate while the producers
	// hammer the pipeline — the mixed lookup+Apply scenario. Every mod
	// pins in_port, so it routes to exactly one shard's control ring.
	var flowMods, flowModErrs uint64
	stopChurn := make(chan struct{})
	var churnWG sync.WaitGroup
	if cfg.FlowModRate > 0 {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			interval := time.Duration(float64(time.Second) / cfg.FlowModRate)
			if interval < 10*time.Microsecond {
				interval = 10 * time.Microsecond
			}
			tick := time.NewTicker(interval)
			defer tick.Stop()
			n := 0
			for {
				select {
				case <-stopChurn:
					return
				case <-tick.C:
					p := producers[n%len(producers)]
					pkt := p.benign[(n/(2*len(producers)))%len(p.benign)]
					mod := openflow.FlowMod{
						Match:    openflow.ExactFrom(&pkt, p.port),
						Priority: 100,
						Actions:  []openflow.Action{openflow.Output(2)},
					}
					if (n/len(producers))%2 == 0 {
						mod.Command = openflow.FlowDeleteStrict
						mod.OutPort = openflow.PortNone // no out_port filter
					} else {
						mod.Command = openflow.FlowAdd
					}
					if err := eng.Apply(mod); err != nil {
						flowModErrs++
					} else {
						flowMods++
					}
					n++
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for i, p := range producers {
		wg.Add(1)
		go func(i int, p *producer) {
			defer wg.Done()
			ring := eng.Shard(i).Ring()
			n := 0
			for time.Now().Before(deadline) {
				// Offer a burst between clock checks.
				for b := 0; b < 512; b++ {
					var it rtc.Item
					if n%ppsAttackEvery == 0 {
						it = rtc.Item{Pkt: p.spoof.Next(), InPort: p.port}
					} else {
						it = rtc.Item{Pkt: p.benign[n%len(p.benign)], InPort: p.port}
					}
					if n%rtc.DefaultLatencySample == 0 {
						it.IngressNanos = time.Now().UnixNano()
					}
					p.offered++
					if !ring.Push(it) {
						// Pipeline full: brief backoff, drop the offer.
						runtime.Gosched()
					}
					n++
				}
			}
		}(i, p)
	}
	wg.Wait()
	close(stopChurn)
	churnWG.Wait()
	eng.Stop()

	snap := eng.Snapshot()
	res := &PPSResult{
		Shards:    cfg.Shards,
		Duration:  cfg.Duration,
		Processed: snap.Processed,
		Forwarded: snap.Forwarded,
		Misses:    snap.Misses,
		RingDrops: snap.CacheDrops,
		Replayed:  snap.Replayed,
		CacheDrop: snap.Cache.Dropped,
		Backlog:   snap.Cache.Backlog,
		P50:       snap.P50,
		P99:       snap.P99,

		FlowMods:    flowMods,
		FlowModErrs: flowModErrs,
	}
	for _, p := range producers {
		res.Offered += p.offered
	}
	res.Accepted = snap.Processed
	secs := cfg.Duration.Seconds()
	res.SustainedPPS = float64(snap.Processed) / secs
	res.OfferedPPS = float64(res.Offered) / secs
	return res, nil
}

// Print renders the measurement human-readably.
func (r *PPSResult) Print(w io.Writer) {
	fmt.Fprintf(w, "sustained-pps macro benchmark — mode=sharded shards=%d duration=%s\n",
		r.Shards, r.Duration)
	fmt.Fprintf(w, "  offered    %12.0f pps\n", r.OfferedPPS)
	fmt.Fprintf(w, "  sustained  %12.0f pps\n", r.SustainedPPS)
	fmt.Fprintf(w, "  latency    p50=%v p99=%v\n", r.P50, r.P99)
	fmt.Fprintf(w, "  forwarded  %d  migrated %d  ring-drops %d\n", r.Forwarded, r.Misses, r.RingDrops)
	fmt.Fprintf(w, "  cache      replayed %d  dropped %d  backlog %d\n", r.Replayed, r.CacheDrop, r.Backlog)
	if r.FlowMods+r.FlowModErrs > 0 {
		fmt.Fprintf(w, "  churn      flowmods %d  errors %d\n", r.FlowMods, r.FlowModErrs)
	}
}

// WritePPSCSV emits one row per result (the mode column is constant
// since the comparison arms were deleted; it stays so old CSVs line up):
// mode,shards,duration_s,offered_pps,sustained_pps,p50_us,p99_us,
// forwarded,migrated,ring_drops,replayed,cache_dropped,backlog,flowmods.
func WritePPSCSV(w io.Writer, rs []*PPSResult) error {
	if _, err := fmt.Fprintln(w, "mode,shards,duration_s,offered_pps,sustained_pps,p50_us,p99_us,forwarded,migrated,ring_drops,replayed,cache_dropped,backlog,flowmods"); err != nil {
		return err
	}
	for _, r := range rs {
		if _, err := fmt.Fprintf(w, "sharded,%d,%.3f,%.0f,%.0f,%.1f,%.1f,%d,%d,%d,%d,%d,%d,%d\n",
			r.Shards, r.Duration.Seconds(), r.OfferedPPS, r.SustainedPPS,
			float64(r.P50.Nanoseconds())/1e3, float64(r.P99.Nanoseconds())/1e3,
			r.Forwarded, r.Misses, r.RingDrops, r.Replayed, r.CacheDrop, r.Backlog, r.FlowMods); err != nil {
			return err
		}
	}
	return nil
}
