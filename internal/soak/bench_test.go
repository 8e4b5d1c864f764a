package soak

import (
	"testing"
	"time"
)

// BenchmarkSoakQuality is the tier-C quality benchmark: one full
// adversarial soak per iteration (all four attacker profiles plus the
// seeded chaos plan), reporting the run's quality numbers as custom
// metrics. Nothing gates them here: zero violations, the benign-loss
// ceiling, the memory budgets and detection are assertions of the
// tier-1 TestSoak* tests (and checks of the soak_adaptive benchmark
// workload), which is where a regression fails.
//
//	violations  invariant violations across the run
//	benign_loss cumulative ground-truth benign collateral loss
//	mem_frac    worst occupancy/budget ratio of the bounded structures
//	detected    1 if every above-floor attacker was blamed
//	pps         simulated packets processed per wall-clock second
func BenchmarkSoakQuality(b *testing.B) {
	cfg := Config{
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
	}
	var violations, detected int
	var loss, memFrac, packets, secs float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
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
}
