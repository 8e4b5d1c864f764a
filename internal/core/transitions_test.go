package core

import (
	"slices"
	"strings"
	"testing"
	"time"

	"floodguard/internal/telemetry"
)

// TestFSMRecordsChaosChain is the end-to-end observability check: a
// full chaos sequence — attack detected, Defense, sideband cut
// (Degraded), heal (Defense), attack over (Finish), drain (Idle) — must
// land in the guard's FSM history in order, each move with a reason and
// a virtual time that never decreases, and the exposition must carry the
// guard counters and pipeline histograms.
func TestFSMRecordsChaosChain(t *testing.T) {
	cfg := defaultTestConfig()
	cfg.DegradedMaxPPS = 40
	b := newBed(t, cfg)
	reg := telemetry.NewRegistry()
	tracer := b.guard.Instrument(reg)
	b.sw.SetTracer(tracer)
	b.sw.Instrument(reg, "fg_switch")

	b.flooder.Start(200)
	b.eng.RunFor(2 * time.Second)
	if got := b.guard.State(); got != StateDefense {
		t.Fatalf("state = %v, want defense", got)
	}
	b.guard.SetCacheReachable(false)
	b.eng.RunFor(300 * time.Millisecond)
	b.guard.SetCacheReachable(true)
	b.eng.RunFor(2 * time.Second)
	b.flooder.Stop()
	b.eng.RunFor(30 * time.Second)
	if got := b.guard.State(); got != StateIdle {
		t.Fatalf("state after attack = %v, want idle", got)
	}

	moves := b.guard.Transitions()
	var chain []string
	for _, tr := range moves {
		chain = append(chain, tr.From.String()+">"+tr.To.String())
	}
	want := []string{
		"idle>init", "init>defense", "defense>degraded",
		"degraded>defense", "defense>finish", "finish>idle",
	}
	if !slices.Equal(chain, want) {
		t.Fatalf("transition chain = %v, want %v", chain, want)
	}
	for i, tr := range moves {
		if tr.Reason == "" {
			t.Errorf("move %d (%s) has no reason", i, chain[i])
		}
		if i > 0 && tr.At.Before(moves[i-1].At) {
			t.Errorf("move %d out of order: %v before %v", i, tr.At, moves[i-1].At)
		}
	}

	// The Prometheus exposition must include the guard counters and
	// per-stage pipeline histograms with real observations.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{
		"fg_guard_attacks_detected_total 1",
		"fg_guard_replayed_total",
		"fg_guard_state 1", // back at idle
		`fg_pipeline_seconds_bucket{stage="cache_wait"`,
		`fg_pipeline_seconds_bucket{stage="packet_in"`,
		"fg_cache_queue_depth",
		"fg_switch_packet_ins_total",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("exposition missing %q", name)
		}
	}
	// Sampled tracing saw real packets through the cache.
	if got := tracer.Histogram(telemetry.StageCacheWait).Count(); got == 0 {
		t.Error("cache_wait stage histogram empty: sampled tracing recorded nothing")
	}
	if got := tracer.Histogram(telemetry.StagePacketIn).Count(); got == 0 {
		t.Error("packet_in stage histogram empty: switch tracing recorded nothing")
	}
}
