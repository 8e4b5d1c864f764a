package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"floodguard/internal/appir"
	"floodguard/internal/apps"
	"floodguard/internal/netpkt"
	"floodguard/internal/openflow"
	"floodguard/internal/rtc"
	"floodguard/internal/spsc"
	"floodguard/internal/symexec"
	"floodguard/internal/tcpguard"
)

// burstLen is how many frames the producer parses, then pushes, between
// clock reads: one parse span and one push span per burst keeps the
// traced run's clock cost under a nanosecond per packet.
const burstLen = 256

// sliceLen is the in-run slice the pps median is taken over.
const sliceLen = time.Second

// replayPPS is the cache stage's packet_in budget on every wire
// workload (the engine default, pinned so the rate check has a number).
const replayPPS = 10000

// wireParams describes one wall-clock workload.
type wireParams struct {
	name       string
	sizes      wireSizes
	spoofEvery int     // one frame in spoofEvery is spoofed (0 = none)
	tcpGuard   bool    // SYN-proxy tier on the shard miss path
	openRate   float64 // offered frames/s, open loop (0 = closed loop)
	// installLive installs the derived rules while traffic runs (the
	// mitigation moment); otherwise they go in during set-up, on the
	// idle engine.
	installLive bool
	warm        time.Duration // untimed lead (closed loop)
	timed       time.Duration // timed interval (open loop: minimum run length)
	lead        time.Duration // open loop: traffic before the install starts
	tail        time.Duration // open loop: traffic after the last ack
}

// check is one correctness assertion of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// wireRig is a set-up engine with its inputs.
type wireRig struct {
	p    wireParams
	in   *wireInputs
	eng  *rtc.Engine
	prog *appir.Program
	st   *appir.State

	started time.Time
	// Wire-out accounting, written on the cache-stage goroutine by the
	// ReplayObserver and read after Stop.
	replayN, replayBytes uint64
	frameBuf, msgBuf     []byte
	replayRec            *spanRec
}

// mitigation is the outcome of one derive-and-install pass.
type mitigation struct {
	TTM       time.Duration // derive start → ack of the last rule
	Explore   time.Duration
	Derive    time.Duration
	Rules     int
	ApplyUS   []float64 // one latency per Engine.Apply
	ApplyErrs int
}

// newWireRig builds the engine for p from the seed: inputs generated,
// exact rules installed, l2_learning state learned, engine started.
func newWireRig(p wireParams, seed int64, tr *tracer) (*wireRig, error) {
	r := &wireRig{p: p, in: genWireInputs(seed, p.sizes), replayRec: tr.recorder()}
	cfg := rtc.Config{
		Shards:         1, // regardless of nproc: see README, shard-scaling gap
		ReplayPPS:      replayPPS,
		ReplayObserver: r.onReplay,
	}
	if p.tcpGuard {
		cfg.TCPGuard = &tcpguard.Config{Secret: uint64(subSeed(seed, streamSpoof))}
	}
	r.eng = rtc.New(cfg)
	for f := 0; f < p.sizes.exactFlows; f++ {
		if err := r.eng.Apply(openflow.FlowMod{
			Match:    openflow.ExactFrom(&r.in.flowPkt[f], r.in.flowPort[f]),
			Command:  openflow.FlowAdd,
			Priority: apps.PrioForward,
			Actions:  []openflow.Action{openflow.Output(2)},
		}); err != nil {
			return nil, fmt.Errorf("%s: install exact rule %d: %w", p.name, f, err)
		}
	}
	r.prog, r.st = apps.L2Learning()
	for i, m := range r.in.hostMAC {
		r.st.Learn("macToPort", appir.MACValue(m), appir.U16Value(r.in.hostPort[i]))
	}
	r.eng.Start()
	r.started = time.Now()
	return r, nil
}

// onReplay is the wire-out end of the pipeline: every packet the cache
// stage replays is marshalled into an OpenFlow packet_in frame, exactly
// the bytes a controller connection would carry.
func (r *wireRig) onReplay(_ uint64, inPort uint16, pkt netpkt.Packet, _ time.Duration) {
	h := r.replayRec.begin("openflow.packet_in", -1, int64(r.replayN))
	r.frameBuf = pkt.MarshalAppend(r.frameBuf[:0])
	r.msgBuf = openflow.AppendFrame(r.msgBuf[:0], uint32(r.replayN), openflow.PacketIn{
		BufferID: openflow.NoBuffer,
		TotalLen: uint16(len(r.frameBuf)),
		InPort:   inPort,
		Reason:   openflow.ReasonNoMatch,
		Data:     r.frameBuf,
	})
	r.replayRec.end(h, 1)
	r.replayN++
	r.replayBytes += uint64(len(r.msgBuf))
}

// mitigate is FloodGuard's reaction: symbolic exploration of the app,
// Algorithm-2 derivation against the learned state, then one
// Engine.Apply per proactive rule — closed loop, one client.
func (r *wireRig) mitigate(rec *spanRec) (*mitigation, error) {
	m := &mitigation{}
	start := time.Now()
	root := rec.begin("bench.mitigate", -1, 0)
	h := rec.begin("symexec.explore", rec.id(root), 0)
	paths, err := symexec.Explore(r.prog)
	rec.end(h, 1)
	m.Explore = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("%s: explore: %w", r.p.name, err)
	}
	t := time.Now()
	h = rec.begin("symexec.derive", rec.id(root), 0)
	rules, err := symexec.DeriveRulesOpts(paths, r.st, symexec.DeriveOptions{})
	rec.end(h, int64(len(rules)))
	m.Derive = time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("%s: derive: %w", r.p.name, err)
	}
	m.Rules = len(rules)
	m.ApplyUS = make([]float64, 0, len(rules))
	for i := range rules {
		c := &rules[i].Rule
		fm := openflow.FlowMod{
			Match: c.Match, Command: openflow.FlowAdd,
			IdleTimeout: c.IdleTimeout, HardTimeout: c.HardTimeout, Priority: c.Priority,
			BufferID: openflow.NoBuffer, OutPort: openflow.PortNone, Actions: c.Actions,
		}
		t := time.Now()
		h := rec.begin("rtc.apply", rec.id(root), int64(i))
		err := r.eng.Apply(fm)
		rec.end(h, 1)
		m.ApplyUS = append(m.ApplyUS, float64(time.Since(t))/1e3)
		if err != nil {
			m.ApplyErrs++
		}
	}
	rec.end(root, int64(len(rules)))
	m.TTM = time.Since(start)
	return m, nil
}

// prodCounts is the producer's tally; cut() copies it at a phase
// boundary together with the engine's counters and the clock.
type prodCounts struct {
	Offered, Accepted, Refused, ParseErrs uint64
	BenignOffered, BenignAccepted         uint64
}

type phaseCut struct {
	At                   time.Time
	Prod                 prodCounts
	Processed, Forwarded uint64
	Mem                  runtime.MemStats
}

func (r *wireRig) cut(c *prodCounts) phaseCut {
	pc := phaseCut{At: time.Now(), Prod: *c}
	pc.Processed, pc.Forwarded, _, _ = r.eng.Counters()
	runtime.ReadMemStats(&pc.Mem)
	return pc
}

// schedule yields the seeded frame sequence: every spoofEvery-th frame
// comes from the spoof pool (each a fresh microflow key until the pool
// wraps, far beyond the microflow cache), the rest cycle the benign
// flows.
type schedule struct {
	in         *wireInputs
	spoofEvery uint64
	k, bi, si  uint64
}

func (s *schedule) next() (frame []byte, port uint16, benign bool) {
	s.k++
	if s.spoofEvery > 0 && s.k%s.spoofEvery == 0 {
		f := s.in.spoof[s.si%uint64(len(s.in.spoof))]
		s.si++
		return f, spoofPort, false
	}
	i := s.bi % uint64(len(s.in.benign))
	s.bi++
	return s.in.benign[i], s.in.flowPort[i], true
}

// burst is the producer's working set between clock reads.
type burst struct {
	items  [burstLen]rtc.Item
	benign [burstLen]bool
	n      int
}

// parse fills the burst with the next n scheduled frames, parsing each:
// wire bytes in, so netpkt.Parse is inside every pps number.
func (b *burst) parse(s *schedule, n int, c *prodCounts) {
	b.n = 0
	for i := 0; i < n; i++ {
		frame, port, benign := s.next()
		c.Offered++
		if benign {
			c.BenignOffered++
		}
		pkt, err := netpkt.Parse(frame)
		if err != nil {
			c.ParseErrs++
			continue
		}
		b.items[b.n] = rtc.Item{Pkt: pkt, InPort: port}
		b.benign[b.n] = benign
		b.n++
	}
}

// pushRetry is the closed-loop push: a full ring is retried until it
// takes the item. It yields a few times, then sleeps, so that on a box
// with fewer cores than goroutines the waiting producer does not take
// the shard's core — the ring is thousands of slots deep, so a short
// sleep never lets it run dry.
func pushRetry(ring *spsc.Ring[rtc.Item], it rtc.Item) {
	for spins := 0; !ring.Push(it); spins++ {
		if spins < 8 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// produceClosed offers frames as fast as the engine takes them: a full
// ring is retried, never dropped, so there is no ingress loss. It cuts
// the phase at warmEnd and again when stop is raised.
func (r *wireRig) produceClosed(stop *atomic.Bool, warmEnd time.Time, rec *spanRec) (t1, t2 phaseCut) {
	ring := r.eng.Shard(0).Ring()
	sched := &schedule{in: r.in, spoofEvery: uint64(r.p.spoofEvery)}
	var c prodCounts
	var b burst
	t1 = r.cut(&c) // stands if the run stops before the warm-up ends
	warm := true
	for batch := int64(0); !stop.Load(); batch++ {
		if warm && batch%64 == 0 && !time.Now().Before(warmEnd) {
			t1 = r.cut(&c)
			warm = false
		}
		root := rec.begin("bench.burst", -1, batch)
		h := rec.begin("netpkt.parse", rec.id(root), batch)
		b.parse(sched, burstLen, &c)
		rec.end(h, int64(b.n))
		h = rec.begin("spsc.push", rec.id(root), batch)
		for i := 0; i < b.n; i++ {
			if i%rtc.DefaultLatencySample == 0 {
				b.items[i].IngressNanos = time.Now().UnixNano()
			}
			pushRetry(ring, b.items[i])
			c.Accepted++
			if b.benign[i] {
				c.BenignAccepted++
			}
		}
		rec.end(h, int64(b.n))
		rec.end(root, int64(b.n))
	}
	return t1, r.cut(&c)
}

// produceOpen offers frames on the pacer's schedule whatever the engine
// does: a full ring refuses the frame, like a NIC RX ring. Sampled
// frames carry their due time, so latency counts the wait a stall
// imposes on the frames behind it. It returns the generator lag of
// every tick in milliseconds.
func (r *wireRig) produceOpen(stop *atomic.Bool, rec *spanRec) (t1, t2 phaseCut, lagMS []float64) {
	ring := r.eng.Shard(0).Ring()
	sched := &schedule{in: r.in, spoofEvery: uint64(r.p.spoofEvery)}
	var c prodCounts
	var b burst
	t1 = r.cut(&c)
	pc := pacer{start: t1.At, rate: r.p.openRate}
	batch := int64(0)
	for !stop.Load() {
		first, n, lag := pc.take(time.Now())
		if n > 0 {
			lagMS = append(lagMS, float64(lag)/1e6)
		}
		for n > 0 {
			m := int(min(n, burstLen))
			root := rec.begin("bench.burst", -1, batch)
			h := rec.begin("netpkt.parse", rec.id(root), batch)
			b.parse(sched, m, &c)
			rec.end(h, int64(b.n))
			h = rec.begin("spsc.push", rec.id(root), batch)
			for i := 0; i < b.n; i++ {
				if k := first + uint64(i); k%rtc.DefaultLatencySample == 0 {
					b.items[i].IngressNanos = pc.dueTime(k).UnixNano()
				}
				if !ring.Push(b.items[i]) {
					c.Refused++
					continue
				}
				c.Accepted++
				if b.benign[i] {
					c.BenignAccepted++
				}
			}
			rec.end(h, int64(b.n))
			rec.end(root, int64(b.n))
			first += uint64(m)
			n -= uint64(m)
			batch++
		}
		time.Sleep(100 * time.Microsecond)
	}
	return t1, r.cut(&c), lagMS
}

// wireRun is everything one wire run measured.
type wireRun struct {
	P        wireParams
	T1, T2   phaseCut
	Total    prodCounts // whole run, warm-up included
	Idle     *mitigation
	Live     *mitigation
	LagMS    []float64
	SlicePPS []float64 // processed/s in each sliceLen of the run, warm-up included
	Snap     rtc.Snapshot
	Rules    int
	Guard    tcpguard.Stats
	Engine   time.Duration // Start → Stop
	ReplayN  uint64
	ReplayB  uint64
	ProbeFwd uint64
	Checks   []check
}

// run drives the rig through its workload and stops the engine.
func (r *wireRig) run(idle *mitigation, tr *tracer) (*wireRun, error) {
	res := &wireRun{P: r.p, Idle: idle}
	var stop atomic.Bool
	var wg sync.WaitGroup
	prodRec := tr.recorder()

	wg.Add(1)
	if r.p.openRate > 0 {
		go func() {
			defer wg.Done()
			res.T1, res.T2, res.LagMS = r.produceOpen(&stop, prodRec)
		}()
	} else {
		warmEnd := time.Now().Add(r.p.warm)
		go func() {
			defer wg.Done()
			res.T1, res.T2 = r.produceClosed(&stop, warmEnd, prodRec)
		}()
	}

	// Slice sampler: the shard's processed counter once a second, so pps
	// can be reported as the median slice — a scheduler hiccup moves one
	// slice, not the run's number.
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(sliceLen)
		defer tick.Stop()
		lastAt := time.Now()
		last, _, _, _ := r.eng.Counters()
		for {
			now := <-tick.C
			if stop.Load() {
				return // the slice the stop cut short is not a sample
			}
			cur, _, _, _ := r.eng.Counters()
			res.SlicePPS = append(res.SlicePPS, float64(cur-last)/now.Sub(lastAt).Seconds())
			last, lastAt = cur, now
		}
	}()

	begin := time.Now()
	var liveErr error
	if r.p.installLive {
		time.Sleep(r.p.lead)
		res.Live, liveErr = r.mitigate(tr.recorder())
		time.Sleep(r.p.tail)
		if rest := r.p.timed - time.Since(begin); rest > 0 {
			time.Sleep(rest)
		}
	} else {
		time.Sleep(r.p.warm + r.p.timed)
	}
	stop.Store(true)
	wg.Wait()
	if liveErr != nil {
		r.eng.Stop()
		return nil, liveErr
	}
	res.Total = res.T2.Prod

	// Quiesce, then probe: one frame per learned MAC must be forwarded
	// by its proactive dl_dst rule.
	drained := r.waitProcessed(res.Total.Accepted)
	_, fwd0, _, _ := r.eng.Counters()
	probes := r.in.probeFrames()
	ring := r.eng.Shard(0).Ring()
	for _, f := range probes {
		pkt, err := netpkt.Parse(f)
		if err != nil {
			res.Total.ParseErrs++
			continue
		}
		pushRetry(ring, rtc.Item{Pkt: pkt, InPort: benignPorts})
	}
	probed := r.waitProcessed(res.Total.Accepted + uint64(len(probes)))
	_, fwd1, _, _ := r.eng.Counters()
	res.ProbeFwd = fwd1 - fwd0
	res.Rules = r.eng.TableRules()
	if g := r.eng.TCPGuard(); g != nil {
		res.Guard = g.Stats()
	}
	r.eng.Stop()
	res.Engine = time.Since(r.started)
	res.Snap = r.eng.Snapshot()
	res.ReplayN, res.ReplayB = r.replayN, r.replayBytes
	res.verify(drained && probed, fwd0, len(probes))
	return res, nil
}

// waitProcessed polls until the shard has processed n packets.
func (r *wireRig) waitProcessed(n uint64) bool {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if p, _, _, _ := r.eng.Counters(); p >= n {
			return true
		}
		time.Sleep(200 * time.Microsecond)
	}
	return false
}

// verify runs the structural checks on a stopped engine.
func (w *wireRun) verify(quiesced bool, fwdBeforeProbe uint64, probes int) {
	add := func(name string, ok bool, format string, a ...any) {
		w.Checks = append(w.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, a...)})
	}
	s := &w.Snap
	add("quiesced", quiesced, "shard processed every accepted frame before stop")
	add("conservation.processed", s.Processed == s.Forwarded+s.Misses,
		"processed=%d forwarded=%d misses=%d", s.Processed, s.Forwarded, s.Misses)
	sum := s.Cache.Enqueued + s.CacheDrops + s.SynAcked + s.GuardDropped
	add("conservation.misses", s.Misses == sum,
		"misses=%d enqueued=%d ring_drops=%d syn_acked=%d guard_dropped=%d",
		s.Misses, s.Cache.Enqueued, s.CacheDrops, s.SynAcked, s.GuardDropped)
	add("conservation.accepted", s.Processed == w.Total.Accepted+uint64(probes),
		"processed=%d accepted=%d probes=%d", s.Processed, w.Total.Accepted, probes)
	add("parse", w.Total.ParseErrs == 0, "parse_errors=%d", w.Total.ParseErrs)
	if w.P.openRate == 0 {
		add("closed_loop.no_loss", w.Total.Refused == 0 && w.Total.Offered == w.Total.Accepted,
			"offered=%d accepted=%d refused=%d", w.Total.Offered, w.Total.Accepted, w.Total.Refused)
		add("closed_loop.benign_forwarded", fwdBeforeProbe == w.Total.BenignAccepted,
			"forwarded=%d benign_accepted=%d", fwdBeforeProbe, w.Total.BenignAccepted)
	}
	limit := replayPPS * w.Engine.Seconds() * 1.02
	add("replay.rate_limited", float64(s.Replayed) <= limit+1 && s.Replayed == w.ReplayN,
		"replayed=%d observed=%d limit=%.0f", s.Replayed, w.ReplayN, limit)
	m := w.Idle
	if w.Live != nil {
		m = w.Live
	}
	add("derive.rule_count", m.Rules == w.P.sizes.hosts && m.ApplyErrs == 0,
		"derived=%d want=%d apply_errors=%d", m.Rules, w.P.sizes.hosts, m.ApplyErrs)
	add("install.table_rules", w.Rules == w.P.sizes.hosts+w.P.sizes.exactFlows,
		"table_rules=%d want=%d", w.Rules, w.P.sizes.hosts+w.P.sizes.exactFlows)
	add("install.probe_hits", w.ProbeFwd == uint64(probes), "probe_forwarded=%d of %d", w.ProbeFwd, probes)
}
