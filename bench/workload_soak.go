package main

import (
	"fmt"
	"time"

	"floodguard/internal/soak"
)

// soakConfig is the soak_adaptive scenario: every adaptive attacker,
// chaos flaps, the SYN-proxy tier under a SYN flood with benign
// handshakes, one shard, in virtual time.
func soakConfig(seed int64, virtual time.Duration, flows int) soak.Config {
	return soak.Config{
		Seed:        subSeed(seed, streamSoak),
		Duration:    virtual,
		Window:      100 * time.Millisecond,
		Flows:       flows,
		Shards:      1,
		Profile:     soak.ProfileAll,
		Chaos:       true,
		TCPGuardOn:  true,
		SynFloodPPS: 2000,
		TCPConns:    200,
	}
}

func runSoak(ctx runCtx) (*runResult, error) {
	res := newResult("soak_adaptive")
	virtual, flows, primes := 60*time.Second, 100_000, 3
	if ctx.Smoke {
		virtual, flows, primes = 3*time.Second, 5_000, 1
	}
	// Set-up: soak.Run builds its own engine, so what set-up can do from
	// outside is prime the process — a one-virtual-second run of the same
	// scenario — so heap growth and lazy initialisation are paid before
	// the timed run.
	setup, _, err := medianSetup(primes, func() (*soak.Result, error) {
		return soak.Run(soakConfig(ctx.Seed, time.Second, flows))
	}, func(*soak.Result) {})
	if err != nil {
		return nil, fmt.Errorf("soak_adaptive: prime: %w", err)
	}

	rec := ctx.Tracer.recorder()
	h := rec.begin("soak.run", -1, 0)
	out, err := soak.Run(soakConfig(ctx.Seed, virtual, flows))
	if err != nil {
		return nil, fmt.Errorf("soak_adaptive: %w", err)
	}
	rec.end(h, int64(len(out.Windows)))

	last := out.Windows[len(out.Windows)-1]
	wall := out.Elapsed.Seconds()
	firstAttack, firstBlame := -1, -1
	var waitP99 float64
	for _, w := range out.Windows {
		if firstAttack < 0 && w.InjAttack > 0 {
			firstAttack = w.Window
		}
		if firstBlame < 0 && w.BlamedPorts > 0 {
			firstBlame = w.Window
		}
		waitP99 = max(waitP99, w.ReplayWaitP99Millis)
	}
	detected := firstAttack >= 0 && firstBlame >= firstAttack

	res.Attempted = uint64(len(out.Windows))
	res.Failed = uint64(len(out.Violations))
	cs := []check{{Name: "soak.no_violations", OK: len(out.Violations) == 0,
		Detail: fmt.Sprintf("violations=%d over %d windows", len(out.Violations), len(out.Windows))}}
	if !ctx.Smoke { // a three-second smoke run ends before the detection deadline
		cs = append(cs, check{Name: "soak.detected", OK: out.Detected && detected,
			Detail: fmt.Sprintf("detected=%v first_attack_window=%d first_blame_window=%d", out.Detected, firstAttack, firstBlame)})
	}
	res.addChecks(cs)

	res.Rate = float64(last.Processed) / wall
	res.Wall = wall
	res.E2E.set("setup_s", setup)
	res.E2E.set("soak_pps", res.Rate)
	if detected {
		res.E2E.set("detect_ms", float64(firstBlame-firstAttack+1)*float64(out.Config.Window.Milliseconds()))
	}
	res.E2E.set("ok_share", res.okShare())
	// Wall-clock metrics this workload has no native reading for carry
	// its own times: the fixed-work run, and one window of it.
	res.E2E.set("ttm_s", wall)
	res.E2E.set("lat_p50_us", wall/float64(len(out.Windows))*1e6)

	res.Layer.set("soak.replay_wait_p99_ms", waitP99)
	res.Layer.set("soak.benign_loss", out.BenignLoss)
	res.Layer.set("soak.max_mem_frac", out.MaxMemFrac)
	res.Layer.set("soak.windows", float64(len(out.Windows)))
	res.Layer.set("tcpguard.syn_acked", float64(last.SynAcked))
	res.Layer.set("tcpguard.conn_watermark", float64(last.ConnWatermark))
	res.Layer.set("flowtable.rules", float64(last.TableRules))
	res.Layer.set("rtc.ring_drops", float64(last.RingDrops))
	res.Layer.set("dpcache.backlog_max", float64(last.MaxBacklog))
	if last.Enqueued > 0 {
		res.Layer.set("dpcache.dropped_share", float64(last.DroppedBenign+last.DroppedSuspect)/float64(last.Enqueued))
	}
	return res, nil
}
