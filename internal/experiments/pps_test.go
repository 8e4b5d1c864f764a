package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

func shortPPS(t *testing.T, mode PPSMode) *PPSResult {
	t.Helper()
	r, err := RunPPS(PPSConfig{
		Mode:     mode,
		Shards:   2,
		Duration: 60 * time.Millisecond,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func checkPPS(t *testing.T, r *PPSResult) {
	t.Helper()
	if r.SustainedPPS <= 0 {
		t.Fatalf("%s: no throughput: %+v", r.Mode, r)
	}
	if r.Forwarded+r.Misses != r.Processed {
		t.Fatalf("%s: forwarded %d + misses %d != processed %d",
			r.Mode, r.Forwarded, r.Misses, r.Processed)
	}
	if r.Replayed+r.CacheDrop+uint64(r.Backlog) > r.Misses {
		t.Fatalf("%s: cache outputs exceed misses: %+v", r.Mode, r)
	}
	if r.Processed > r.Offered {
		t.Fatalf("%s: processed %d > offered %d", r.Mode, r.Processed, r.Offered)
	}
	if r.P99 == 0 || r.P50 > r.P99 {
		t.Fatalf("%s: bad quantiles p50=%v p99=%v", r.Mode, r.P50, r.P99)
	}
}

func TestRunPPSSharded(t *testing.T) {
	checkPPS(t, shortPPS(t, PPSSharded))
}

func TestRunPPSChannels(t *testing.T) {
	checkPPS(t, shortPPS(t, PPSChannels))
}

// TestRunPPSChurnAppliesFlowMods drives every arm with rule churn on
// and requires the conservation contract to survive it — plus proof
// that the churn actually ran (mods applied, none erroring).
func TestRunPPSChurnAppliesFlowMods(t *testing.T) {
	for _, mode := range []PPSMode{PPSSharded, PPSChannels} {
		r, err := RunPPS(PPSConfig{
			Mode:        mode,
			Shards:      2,
			Duration:    80 * time.Millisecond,
			Seed:        7,
			FlowModRate: 2000,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkPPS(t, r)
		if r.FlowMods == 0 {
			t.Errorf("%s: churn applied no flow_mods", mode)
		}
		if r.FlowModErrs != 0 {
			t.Errorf("%s: %d flow_mod errors", mode, r.FlowModErrs)
		}
	}
}

func TestRunPPSRejectsUnknownMode(t *testing.T) {
	if _, err := RunPPS(PPSConfig{Mode: "bogus"}); err == nil {
		t.Fatal("expected error for unknown mode")
	}
}

func TestWritePPSCSV(t *testing.T) {
	a := shortPPS(t, PPSSharded)
	b := shortPPS(t, PPSChannels)
	var buf bytes.Buffer
	if err := WritePPSCSV(&buf, []*PPSResult{a, b}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows, got %d lines:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[1], "sharded,2,") || !strings.HasPrefix(lines[2], "channels,2,") {
		t.Fatalf("unexpected rows:\n%s", buf.String())
	}
}

// BenchmarkSustainedPPS is the whole-pipeline macro benchmark: each
// "iteration" is one full sustained run, and the reported pps / p99ms
// metrics are what BENCH_6.json gates. Run with -benchtime=1x.
func BenchmarkSustainedPPS(b *testing.B) {
	duration := 500 * time.Millisecond
	if testing.Short() {
		duration = 100 * time.Millisecond
	}
	results := map[PPSMode]*PPSResult{}
	for _, mode := range []PPSMode{PPSChannels, PPSSharded} {
		b.Run(fmt.Sprintf("mode=%s", mode), func(b *testing.B) {
			var last *PPSResult
			for i := 0; i < b.N; i++ {
				r, err := RunPPS(PPSConfig{Mode: mode, Duration: duration, Seed: 7})
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			results[mode] = last
			b.ReportMetric(last.SustainedPPS, "pps")
			b.ReportMetric(float64(last.P99.Nanoseconds())/1e6, "p99ms")
			b.ReportMetric(0, "ns/op") // wall time is the run duration, not a per-op cost
		})
	}
	// The ≥2× architectural speedup only manifests with real cores to
	// shard across; on small CI boxes we report, but do not assert.
	if ch, sh := results[PPSChannels], results[PPSSharded]; ch != nil && sh != nil {
		ratio := sh.SustainedPPS / ch.SustainedPPS
		b.Logf("sharded/channels sustained-pps ratio: %.2fx (NumCPU=%d)", ratio, runtime.NumCPU())
		if runtime.NumCPU() >= 4 && ratio < 2.0 {
			b.Fatalf("sharded engine only %.2fx over channel baseline on %d CPUs (want >=2x)",
				ratio, runtime.NumCPU())
		}
	}
}

// BenchmarkSustainedPPSChurn is the mixed lookup+Apply macro benchmark:
// the same whole-pipeline sustained run, but with a control-plane
// goroutine strict-deleting and re-adding installed rules at 1000
// flow_mods/s while the producers hammer the serving path. Each mod is
// delivered in-band to its owning shard's control ring, so the other
// shards never even see the churn. (The writer-locked comparison arm it
// used to run beside is gone; its last reading is in EXPERIMENTS.md,
// "Churn throughput".) BENCH_9.json gates the pps floor, p99 ceiling,
// and applied-flow_mod floor. Run with -benchtime=1x.
func BenchmarkSustainedPPSChurn(b *testing.B) {
	duration := 500 * time.Millisecond
	if testing.Short() {
		duration = 100 * time.Millisecond
	}
	b.Run("mode=sharded", func(b *testing.B) {
		var last *PPSResult
		for i := 0; i < b.N; i++ {
			r, err := RunPPS(PPSConfig{
				Mode:        PPSSharded,
				Duration:    duration,
				Seed:        7,
				FlowModRate: 1000,
			})
			if err != nil {
				b.Fatal(err)
			}
			last = r
		}
		if last.FlowModErrs != 0 {
			b.Fatalf("%d flow_mod errors under churn", last.FlowModErrs)
		}
		b.ReportMetric(last.SustainedPPS, "pps")
		b.ReportMetric(float64(last.P99.Nanoseconds())/1e6, "p99ms")
		b.ReportMetric(float64(last.FlowMods), "flowmods")
		b.ReportMetric(0, "ns/op")
	})
}
