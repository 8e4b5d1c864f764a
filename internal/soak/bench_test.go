package soak

import (
	"runtime"
	"testing"
	"time"
)

// runCounted runs one soak and returns it with the heap allocations and
// GC cycles the process made meanwhile.
func runCounted(cfg Config) (res *Result, mallocs, gcs uint64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err = Run(cfg)
	runtime.ReadMemStats(&after)
	return res, after.Mallocs - before.Mallocs, uint64(after.NumGC - before.NumGC), err
}

// BenchmarkSoakQuality is the tier-C quality benchmark: one full
// adversarial soak per iteration (all four attacker profiles plus the
// seeded chaos plan), reporting the run's quality numbers as custom
// metrics. Nothing gates them here: zero violations, the benign-loss
// ceiling, the memory budgets and detection are assertions of the
// tier-1 TestSoak* tests (and checks of the soak_adaptive benchmark
// workload), which is where a regression fails. The sub-benchmarks:
//
//	unguarded   four shards, SYN-proxy tier off
//	guarded     soak_adaptive's shape (benchSoakCfg): one shard, tier on, SYN flood
//
// and the metrics:
//
//	violations  invariant violations across the run
//	benign_loss cumulative ground-truth benign collateral loss
//	mem_frac    worst occupancy/budget ratio of the bounded structures
//	detected    1 if every above-floor attacker was blamed
//	pps         simulated packets processed per wall-clock second
//	allocs/pkt  heap allocations per processed packet, set-up included
//	gc_cycles   GC cycles per run
func BenchmarkSoakQuality(b *testing.B) {
	b.Run("unguarded", func(b *testing.B) {
		benchSoak(b, Config{
			Seed:      0xBE7C4,
			Duration:  4 * time.Second,
			Window:    100 * time.Millisecond,
			Flows:     100_000,
			HotFlows:  256,
			Ports:     8,
			Shards:    4,
			Profile:   ProfileAll,
			BenignPPS: 40_000,
			Chaos:     true,
		})
	})
	b.Run("guarded", func(b *testing.B) {
		cfg := benchSoakCfg()
		cfg.Duration = 4 * time.Second
		benchSoak(b, cfg)
	})
}

func benchSoak(b *testing.B, cfg Config) {
	var violations, detected int
	var loss, memFrac, packets, secs, mallocs, gcs float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, m, g, err := runCounted(cfg)
		if err != nil {
			b.Fatalf("soak run: %v", err)
		}
		violations += len(res.Violations)
		loss += res.BenignLoss
		if res.MaxMemFrac > memFrac {
			memFrac = res.MaxMemFrac
		}
		if res.Detected {
			detected++
		}
		last := res.Windows[len(res.Windows)-1]
		packets += float64(last.Processed)
		secs += res.Elapsed.Seconds()
		mallocs += float64(m)
		gcs += float64(g)
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(violations)/n, "violations")
	b.ReportMetric(loss/n, "benign_loss")
	b.ReportMetric(memFrac, "mem_frac")
	b.ReportMetric(float64(detected)/n, "detected")
	if secs > 0 {
		b.ReportMetric(packets/secs, "pps")
	}
	if packets > 0 {
		b.ReportMetric(mallocs/packets, "allocs/pkt")
	}
	b.ReportMetric(gcs/n, "gc_cycles")
}

// TestSoakSteadyStateAllocatesNothing is the witness behind "a soak
// window allocates nothing": soak_adaptive's shape (one shard, the
// SYN-proxy tier answering every attacker SYN) run for 2 s and for 4 s
// of virtual time. Set-up costs the same in both, so the extra
// allocations over the extra packets are the steady state's price — a
// SYN-ACK buffered per attacker SYN or an event per replay tick shows
// up here as ~1 per packet.
func TestSoakSteadyStateAllocatesNothing(t *testing.T) {
	var mallocs, packets [2]uint64
	for i, d := range []time.Duration{2 * time.Second, 4 * time.Second} {
		cfg := benchSoakCfg()
		cfg.Duration = d
		res, m, _, err := runCounted(cfg)
		if err != nil {
			t.Fatalf("soak run: %v", err)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("%v run: %d violations, first %s", d, len(res.Violations), res.Violations[0])
		}
		mallocs[i], packets[i] = m, res.Windows[len(res.Windows)-1].Processed
	}
	extraPkts := packets[1] - packets[0]
	perPkt := (float64(mallocs[1]) - float64(mallocs[0])) / float64(extraPkts)
	t.Logf("2s: %d mallocs / %d packets; 4s: %d / %d; %.5f per extra packet",
		mallocs[0], packets[0], mallocs[1], packets[1], perPkt)
	if perPkt > 0.001 {
		t.Errorf("steady state allocates %.4f per packet over %d extra packets, want <= 0.001", perPkt, extraPkts)
	}
}
