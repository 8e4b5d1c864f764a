package main

import "time"

// wireWorkload returns the parameters of a wall-clock workload.
func wireWorkload(name string, ctx runCtx) wireParams {
	timed := time.Duration(ctx.Seconds * float64(time.Second))
	p := wireParams{name: name, warm: time.Second, timed: timed,
		sizes: wireSizes{hosts: 1024, flows: 256, exactFlows: 32}}
	switch name {
	case "wire_flood":
		p.sizes.spoofPool = 1 << 18
		p.spoofEvery = 2
		p.tcpGuard = true
	case "flood_install":
		p.sizes.hosts = 10000
		p.sizes.spoofPool = 1 << 18
		p.spoofEvery = 4
		p.openRate = 500e3
		p.installLive = true
		p.lead, p.tail = time.Second, 500*time.Millisecond
	}
	if ctx.Smoke {
		p.sizes.hosts, p.sizes.flows, p.sizes.exactFlows = 256, 64, 8
		if p.sizes.spoofPool > 0 {
			p.sizes.spoofPool = 1 << 12
		}
		p.warm, p.lead, p.tail = 50*time.Millisecond, 50*time.Millisecond, 50*time.Millisecond
		p.timed = 250 * time.Millisecond
	}
	return p
}

// setupRepeats is how many times a wire workload sets up in one run;
// setup_s (and the idle install time) is the median.
const setupRepeats = 9

type readyRig struct {
	rig  *wireRig
	idle *mitigation
}

func runWire(name string, ctx runCtx) (*runResult, error) {
	p := wireWorkload(name, ctx)
	repeats := setupRepeats
	if ctx.Smoke {
		repeats = 1
	}
	var idleTTM []float64
	setup, ready, err := medianSetup(repeats, func() (readyRig, error) {
		rig, err := newWireRig(p, ctx.Seed, ctx.Tracer)
		if err != nil {
			return readyRig{}, err
		}
		if p.installLive {
			return readyRig{rig: rig}, nil
		}
		m, err := rig.mitigate(nil)
		if err != nil {
			rig.eng.Stop()
			return readyRig{}, err
		}
		idleTTM = append(idleTTM, m.TTM.Seconds())
		return readyRig{rig, m}, nil
	}, func(r readyRig) { r.rig.eng.Stop() })
	if err != nil {
		return nil, err
	}
	w, err := ready.rig.run(ready.idle, ctx.Tracer)
	if err != nil {
		return nil, err
	}

	res := newResult(name)
	res.Wall = w.Engine.Seconds()
	timed := w.T2.At.Sub(w.T1.At).Seconds()
	processed := float64(w.T2.Processed - w.T1.Processed)
	offered := w.T2.Prod.Offered - w.T1.Prod.Offered
	benign := w.T2.Prod.BenignOffered - w.T1.Prod.BenignOffered
	refused := w.T2.Prod.Refused - w.T1.Prod.Refused

	res.Rate = processed / timed
	if p.openRate == 0 {
		// Closed loop: the median one-second slice after warm-up.
		skip := int((p.warm + sliceLen - 1) / sliceLen)
		if len(w.SlicePPS)-skip >= 5 {
			res.Rate = median(w.SlicePPS[skip:])
		}
	}

	mit := w.Idle
	if w.Live != nil {
		mit = w.Live
	}
	res.Attempted = offered + uint64(mit.Rules)
	res.Refused = refused
	res.Failed = refused + w.Total.ParseErrs + uint64(mit.ApplyErrs)
	res.addChecks(w.Checks)

	res.E2E.set("setup_s", setup)
	res.E2E.set("pps", res.Rate)
	res.E2E.set("ok_share", res.okShare())
	res.E2E.set("lat_p50_us", float64(w.Snap.P50)/1e3)
	if p.spoofEvery > 0 && benign > 0 {
		res.E2E.set("benign_fwd_share", float64(w.T2.Forwarded-w.T1.Forwarded)/float64(benign))
	}
	if w.Live != nil {
		res.E2E.set("ttm_s", w.Live.TTM.Seconds())
		res.Timings["apply_us"] = summarize(w.Live.ApplyUS)
		res.Timings["gen_lag_ms"] = summarize(w.LagMS)
	} else {
		// No install under load here, so no time to mitigate: ttm_s reads
		// the length of the timed interval — a real wall time that no
		// change to the program moves. The same derive and install on the
		// idle engine (median over the set-ups) is a layer number.
		res.E2E.set("ttm_s", timed)
		res.Layer.set("rtc.idle_install_ms", median(idleTTM)*1e3)
		res.Timings["apply_us"] = summarize(w.Idle.ApplyUS)
	}

	// Counts from the layers' own stats.
	s := &w.Snap
	micro := s.Shards[0].Micro
	if lookups := micro.Hits + micro.Misses; lookups > 0 {
		res.Layer.set("flowtable.micro_hit_share", float64(micro.Hits)/float64(lookups))
	}
	res.Layer.set("flowtable.micro_resets", float64(micro.Resets))
	res.Layer.set("flowtable.rules", float64(w.Rules))
	res.Layer.set("rtc.apply_n", float64(mit.Rules))
	ap := res.Timings["apply_us"]
	res.Layer.set("rtc.apply_p50_us", ap.P50)
	res.Layer.set("rtc.apply_p99_us", quantileOf(mit.ApplyUS, 0.99))
	res.Layer.set("symexec.explore_us", float64(mit.Explore)/1e3)
	res.Layer.set("symexec.derive_ms", float64(mit.Derive)/1e6)
	res.Layer.set("tcpguard.syn_acked", float64(s.SynAcked))
	res.Layer.set("tcpguard.conn_watermark", float64(w.Guard.Watermark))
	if s.Cache.Enqueued > 0 {
		res.Layer.set("dpcache.dropped_share", float64(s.Cache.Dropped)/float64(s.Cache.Enqueued))
	}
	res.Layer.set("dpcache.backlog_max", float64(s.Cache.MaxBacklog))
	res.Layer.set("rtc.ns_per_pkt", 1e9/res.Rate)
	res.Layer.set("rtc.ring_drops", float64(s.CacheDrops))
	if offered > 0 {
		res.Layer.set("rtc.ingress_refused_share", float64(refused)/float64(offered))
	}
	res.Layer.set("rtc.allocs_per_pkt", float64(w.T2.Mem.Mallocs-w.T1.Mem.Mallocs)/processed)
	res.Layer.set("rtc.gc_pause_ms", float64(w.T2.Mem.PauseTotalNs-w.T1.Mem.PauseTotalNs)/1e6)
	res.Layer.set("rtc.lat_p99_us", float64(s.P99)/1e3)
	res.Layer.set("rtc.lat_n", float64(s.Processed/8))
	res.Layer.set("rtc.wire_out_bytes", float64(w.ReplayB))
	if len(w.LagMS) > 0 {
		res.Layer.set("bench.gen_lag_p99_ms", quantileOf(w.LagMS, 0.99))
	}
	return res, nil
}
