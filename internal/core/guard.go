package core

import (
	"fmt"
	"slices"
	"time"

	"floodguard/internal/attrib"
	"floodguard/internal/controller"
	"floodguard/internal/dpcache"
	"floodguard/internal/flowtable"
	"floodguard/internal/netpkt"
	"floodguard/internal/netsim"
	"floodguard/internal/openflow"
	"floodguard/internal/switchsim"
	"floodguard/internal/telemetry"
)

// protectedSwitch is one datapath under FloodGuard's protection.
type protectedSwitch struct {
	dp controller.Datapath

	ingressPorts []uint16 // sorted; from FeaturesReply, excluding the cache port

	bufferFrac float64 // latest utilization from StatsReply
}

// Guard is one FloodGuard deployment: it extends a controller with the
// proactive flow rule analyzer and the packet migration module. It is
// the shell around Policy: its tickers build Observations, and apply
// carries out the Decisions on the switches, cache and analyzer.
type Guard struct {
	cfg  Config
	eng  *netsim.Engine
	ctrl *controller.Controller

	policy   *Policy
	history  []Transition
	analyzer *Analyzer
	// attrib, when armed by cfg.Attribution.Enabled, blames ports and
	// sources; nil otherwise. verdicts is the policy's port input (see
	// refreshPorts).
	attrib   *attrib.Attributor
	verdicts []attrib.Verdict

	switches map[uint64]*protectedSwitch
	cache    *dpcache.Cache
	cacheTbl *flowtable.Table // §IV.E cache-resident rule table

	// Data-plane packet_ins in the current detection window; replaying
	// marks the agent's own re-raised packets, which do not count.
	pktInsSample int
	replaying    bool

	detectTicker *netsim.Ticker
	trackTicker  *netsim.Ticker
	rateTicker   *netsim.Ticker
	statsTicker  *netsim.Ticker
	derived      *netsim.Event // pending Init→Defense report

	// Degradation state: sideband health as reported through
	// SetCacheReachable, and the direct-dispatch budget consumed in the
	// current detection window while degraded.
	cacheReachable  bool
	degradedAllowed int

	// Counters (atomics: safe to read from any goroutine through the
	// accessor methods or a telemetry registry while the engine runs).
	detectedAttacks telemetry.Counter
	replayed        telemetry.Counter
	degradedEntries telemetry.Counter
	degradedDrops   telemetry.Counter
	packetIns       telemetry.Counter
	lastReplayNanos telemetry.Gauge

	// Per-window detector gauges, pushed once per detection sample so a
	// scrape never touches engine-owned state.
	stateGauge telemetry.Gauge
	gRate      telemetry.FloatGauge
	gMigRate   telemetry.FloatGauge
	gScore     telemetry.FloatGauge
	// gMigratedPorts mirrors the number of diverted ports across all
	// switches.
	gMigratedPorts telemetry.Gauge

	// trace, when armed by Instrument, samples packet lifecycles.
	trace *telemetry.Tracer

	// ReplayObserver, when set, sees every replayed packet with its
	// cache residence time (experiment instrumentation).
	ReplayObserver func(origin uint64, inPort uint16, pkt *netpkt.Packet, queued time.Duration)
}

const (
	// traceSampleEvery samples one in N packets for pipeline lifecycle
	// tracing once the guard is instrumented.
	traceSampleEvery = 64
	// statsPollInterval is how often the agent polls switch utilization.
	statsPollInterval = 50 * time.Millisecond
)

// DetectedAttacks returns how many times the detector has fired.
func (g *Guard) DetectedAttacks() uint64 { return g.detectedAttacks.Value() }

// Replayed returns the number of packets re-raised from the cache.
func (g *Guard) Replayed() uint64 { return g.replayed.Value() }

// DegradedEntries counts Defense→Degraded transitions.
func (g *Guard) DegradedEntries() uint64 { return g.degradedEntries.Value() }

// DegradedDrops counts packet_ins shed by the degraded direct rate
// limiter (beyond-budget table-miss traffic while the cache is
// unreachable).
func (g *Guard) DegradedDrops() uint64 { return g.degradedDrops.Value() }

// NewGuard attaches FloodGuard to a controller. Register all applications
// on the controller before calling Protect/Start.
func NewGuard(eng *netsim.Engine, ctrl *controller.Controller, cfg Config) (*Guard, error) {
	an, err := NewAnalyzer(cfg.Analyzer, ctrl.Apps())
	if err != nil {
		return nil, err
	}
	g := &Guard{
		cfg:            cfg,
		eng:            eng,
		ctrl:           ctrl,
		analyzer:       an,
		switches:       make(map[uint64]*protectedSwitch),
		cacheReachable: true,
	}
	g.stateGauge.Set(int64(StateIdle))
	if cfg.Attribution.Enabled {
		g.attrib = attrib.New(cfg.Attribution.Params)
	}
	g.policy = NewPolicy(cfg.Detection, cfg.RateLimit)
	// Shared default cache (paper §IV.E: "ideally, we only need to deploy
	// one data plane cache to serve all switches").
	g.cache = dpcache.New(eng, cfg.Cache, g)
	if g.attrib != nil {
		// Verdicts split the replay queues (benign-priority scheduling),
		// and every migrated packet feeds the blame detectors, which
		// otherwise go blind on diverted ports.
		g.cache.SetHinter(g.attrib)
		g.cache.SetObserver(g.attrib.ObservePacket)
	}
	if cfg.Analyzer.RulesInCache {
		g.cacheTbl = flowtable.New(0)
		g.cache.UseRuleTable(g.cacheTbl)
	}
	ctrl.AddHook(g.packetInHook)
	ctrl.AddMessageListener(g.onMessage)
	return g, nil
}

// selectiveActive reports whether attribution's verdicts pick the ports
// to divert; otherwise migration is blanket and every port is suspect.
// The DisableINPORTTag ablation forces blanket mode: its single untagged
// rule cannot discriminate ports.
func (g *Guard) selectiveActive() bool {
	return g.attrib != nil && g.cfg.Attribution.Selective && !g.cfg.DisableINPORTTag
}

// PortMigrated reports whether an ingress port currently routes its
// table-miss traffic to the cache: whether the policy diverts it.
// Engine goroutine only.
func (g *Guard) PortMigrated(dpid uint64, port uint16) bool {
	return slices.Contains(g.policy.Diverted(), PortMove{DPID: dpid, Port: port, Divert: true})
}

// Cache returns the guard's data plane cache, shared by every protected
// switch.
func (g *Guard) Cache() *dpcache.Cache { return g.cache }

// Analyzer exposes the proactive flow rule analyzer.
func (g *Guard) Analyzer() *Analyzer { return g.analyzer }

// State returns the FSM state.
func (g *Guard) State() FSMState { return g.policy.State() }

// record stamps one FSM move with the engine clock, appends it to the
// history and publishes the new state; it runs on the engine goroutine.
func (g *Guard) record(tr Transition) {
	tr.At = g.eng.Now()
	g.history = append(g.history, tr)
	g.stateGauge.Set(int64(tr.To))
}

// Instrument attaches the guard's counters and state gauge, its cache,
// its analyzer and its controller to reg, and arms sampled pipeline
// tracing (one in traceSampleEvery packets). It returns the tracer so
// deployments can wire it into their switches too. Call once, before
// Start.
func (g *Guard) Instrument(reg *telemetry.Registry) *telemetry.Tracer {
	g.trace = telemetry.NewTracer(reg, traceSampleEvery)
	g.cache.SetTracer(g.trace)
	g.cache.Register(reg, "fg_cache")
	if g.cacheTbl != nil {
		g.cacheTbl.Register(reg, "fg_cachetbl")
	}
	reg.RegisterCounter("fg_guard_attacks_detected_total",
		"Times the saturation detector fired.", &g.detectedAttacks)
	reg.RegisterCounter("fg_guard_replayed_total",
		"Packets re-raised from the data plane cache.", &g.replayed)
	reg.RegisterCounter("fg_guard_degraded_entries_total",
		"Defense to Degraded transitions.", &g.degradedEntries)
	reg.RegisterCounter("fg_guard_degraded_drops_total",
		"Packet_ins shed by the degraded direct rate limiter.", &g.degradedDrops)
	reg.RegisterCounter("fg_guard_packet_ins_total",
		"Data-plane packet_ins observed by the detector (replays excluded).", &g.packetIns)
	reg.RegisterGauge("fg_guard_state",
		"Current FSM state (1=idle 2=init 3=defense 4=finish 5=degraded).", &g.stateGauge)
	reg.RegisterFloatGauge("fg_guard_packet_in_rate_pps",
		"Smoothed packet_in rate per detection window.", &g.gRate)
	reg.RegisterFloatGauge("fg_guard_migration_rate_pps",
		"Rate of packets diverted into the caches.", &g.gMigRate)
	reg.RegisterFloatGauge("fg_guard_score",
		"Composite detection score (>=1 triggers).", &g.gScore)
	reg.RegisterGauge("fg_guard_migrated_ports",
		"Ingress ports diverted to the cache.", &g.gMigratedPorts)
	if g.attrib != nil {
		g.attrib.Register(reg, "fg_attrib")
	}
	reg.GaugeFunc("fg_guard_last_replay_delay_seconds",
		"Cache residence time of the most recent replay.", func() float64 {
			return time.Duration(g.lastReplayNanos.Value()).Seconds()
		})
	g.analyzer.Register(reg)
	g.ctrl.Instrument(reg, "fg_controller")
	g.ctrl.SetTracer(g.trace)
	return g.trace
}

// Transitions returns the FSM history.
func (g *Guard) Transitions() []Transition { return slices.Clone(g.history) }

// Protect places a switch under FloodGuard: its data plane cache is
// attached on cfg.CachePort and migration is armed. Call before Start.
// The switch must already be bound to the controller.
func (g *Guard) Protect(sw *switchsim.Switch) error {
	dp, ok := g.ctrl.Datapath(sw.DPID)
	if !ok {
		return fmt.Errorf("floodguard: datapath %#x is not connected to the controller", sw.DPID)
	}
	if sw.DPID == 0 {
		return fmt.Errorf("floodguard: datapath id 0 is reserved")
	}
	ps := &protectedSwitch{dp: dp}
	sw.AttachPort(g.cfg.CachePort, g.cache.Adapter(sw.DPID), 1e9, 100*time.Microsecond)
	sw.SetNoFlood(g.cfg.CachePort, true)
	for _, p := range sw.Ports() {
		if p != g.cfg.CachePort {
			ps.ingressPorts = append(ps.ingressPorts, p)
		}
	}
	slices.Sort(ps.ingressPorts)
	g.switches[sw.DPID] = ps
	g.refreshPorts()
	return nil
}

// Start runs the offline preparation (Algorithm 1 for every app) and arms
// the monitoring component. Under normal circumstances only monitoring is
// active; everything else stays dormant (§II.D design objectives).
func (g *Guard) Start() error {
	if err := g.analyzer.Prepare(); err != nil {
		return err
	}
	g.cache.Start()
	g.cache.SetRate(0) // dormant until an attack is detected
	g.detectTicker = g.eng.NewTicker(g.cfg.Detection.SampleInterval, g.sample)
	g.statsTicker = g.eng.NewTicker(statsPollInterval, g.pollStats)
	return nil
}

// Stop disarms all periodic work.
func (g *Guard) Stop() {
	for _, t := range []*netsim.Ticker{g.detectTicker, g.trackTicker, g.rateTicker, g.statsTicker} {
		if t != nil {
			t.Stop()
		}
	}
	if g.derived != nil {
		g.derived.Cancel()
	}
	g.cache.Stop()
}

// packetInHook observes every packet_in before app dispatch (detection
// signal). Replayed packets are excluded from the rate: they are under
// the agent's own control. While degraded, the hook is also the direct
// rate limiter: with the cache unreachable, table-miss traffic reaches
// the controller unmigrated again, and everything beyond the per-window
// budget is shed here so the serial executor keeps its headroom.
func (g *Guard) packetInHook(ev *controller.PacketInEvent) bool {
	if g.replaying {
		return true
	}
	g.pktInsSample++
	g.packetIns.Inc()
	if g.attrib != nil {
		// Direct (unmigrated) table-miss traffic; the migrated share is
		// observed at cache ingest, so the two paths never double-count.
		g.attrib.ObservePacket(ev.Datapath.DPID(), ev.Msg.InPort, &ev.Packet)
	}
	if g.policy.State() == StateDegraded {
		if float64(g.degradedAllowed) >= g.degradedWindowBudget() {
			g.degradedDrops.Inc()
			return false
		}
		g.degradedAllowed++
	}
	return true
}

// onMessage captures FeaturesReply (port inventory) and StatsReply
// (utilization) from the switches.
func (g *Guard) onMessage(dp controller.Datapath, f openflow.Framed) {
	ps, ok := g.switches[dp.DPID()]
	if !ok {
		return
	}
	switch m := f.Msg.(type) {
	case openflow.FeaturesReply:
		ps.ingressPorts = ps.ingressPorts[:0]
		for _, p := range m.Ports {
			if p.PortNo != g.cfg.CachePort {
				ps.ingressPorts = append(ps.ingressPorts, p.PortNo)
			}
		}
		slices.Sort(ps.ingressPorts)
		g.refreshPorts()
	case openflow.StatsReply:
		if m.Table.BufferSize > 0 {
			ps.bufferFrac = float64(m.Table.BufferUsed) / float64(m.Table.BufferSize)
		}
	case openflow.PortStatus:
		g.onPortStatus(ps, m)
	}
}

// onPortStatus tracks topology changes: migration coverage must follow
// the live port set, or a port added mid-defense becomes an unmigrated
// path to the controller.
func (g *Guard) onPortStatus(ps *protectedSwitch, m openflow.PortStatus) {
	port := m.Port.PortNo
	if port == g.cfg.CachePort {
		return
	}
	i, known := slices.BinarySearch(ps.ingressPorts, port)
	switch {
	case m.Reason == openflow.PortAdded && !known:
		ps.ingressPorts = slices.Insert(ps.ingressPorts, i, port)
	case m.Reason == openflow.PortDeleted && known:
		ps.ingressPorts = slices.Delete(ps.ingressPorts, i, i+1)
	default:
		return
	}
	// The port joins or leaves the policy's input, which diverts or
	// withdraws it (or its fallback designation) on the spot.
	g.refreshPorts()
	g.step(TickNone)
}

// refreshPorts rebuilds the policy's port input after the protected
// ports changed. Blanket migration marks every protected ingress port
// suspect, in (datapath, port) order. Selective migration keeps the last
// roll's verdicts for the ports still protected; a fresh port waits for
// the next roll.
func (g *Guard) refreshPorts() {
	if g.selectiveActive() {
		g.verdicts = slices.DeleteFunc(g.verdicts, func(v attrib.Verdict) bool {
			ps := g.switches[v.DPID]
			return ps == nil || !slices.Contains(ps.ingressPorts, v.Port)
		})
		return
	}
	dpids := make([]uint64, 0, len(g.switches))
	for dpid := range g.switches {
		dpids = append(dpids, dpid)
	}
	slices.Sort(dpids)
	g.verdicts = g.verdicts[:0]
	for _, dpid := range dpids {
		for _, p := range g.switches[dpid].ingressPorts {
			g.verdicts = append(g.verdicts, attrib.Verdict{DPID: dpid, Port: p, Suspect: true})
		}
	}
}

func (g *Guard) pollStats() {
	for _, ps := range g.switches {
		ps.dp.Send(openflow.Framed{Msg: openflow.StatsRequest{}})
	}
}

// SetCacheReachable reports sideband health to the guard (the chaos
// experiment flaps it on a seeded schedule). It must be invoked on the
// engine/runner goroutine, like every other guard entry point. Repeated
// reports of the same health are no-ops.
func (g *Guard) SetCacheReachable(ok bool) {
	if g.cacheReachable == ok {
		return
	}
	g.cacheReachable = ok
	g.step(TickNone)
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
	return max(pps*g.cfg.Detection.SampleInterval.Seconds(), 1)
}

// worstBufferFrac is the fullest switch buffer from the latest
// StatsReplies; a NaN reading is skipped.
func worstBufferFrac(switches map[uint64]*protectedSwitch) float64 {
	util := 0.0
	for _, ps := range switches {
		if ps.bufferFrac > util { // false for NaN
			util = ps.bufferFrac
		}
	}
	return util
}

// sample closes a detection window: roll attribution first, so the
// policy reconciles migration with this window's verdicts, then step.
func (g *Guard) sample() {
	if g.attrib != nil {
		roll := g.attrib.Roll(g.cfg.Detection.SampleInterval)
		if g.selectiveActive() {
			g.verdicts = append(g.verdicts[:0], roll...)
			g.refreshPorts()
		}
	}
	g.step(TickSample)
	g.pktInsSample = 0
	g.degradedAllowed = 0 // fresh direct-dispatch budget each window
	g.gRate.Set(g.policy.PacketInRate())
	g.gMigRate.Set(g.policy.MigrationRate())
	g.gScore.Set(g.policy.Score())
}

// step builds the observation for tick, steps the policy and carries out
// its decisions.
func (g *Guard) step(tick Tick) {
	o := Observation{
		Tick:       tick,
		PacketIns:  g.pktInsSample,
		BufferFrac: worstBufferFrac(g.switches),
		Backlog:    g.ctrl.Backlog(),
		Reachable:  g.cacheReachable,
		Enqueued:   g.cache.Stats().Enqueued,
		Drained:    g.cache.Drained(),
		Verdicts:   g.verdicts,
	}
	g.apply(g.policy.Step(o))
}

// apply carries out one step's decisions: record the transitions, move
// the diversion rules, set the replay rate, keep the clocks the state
// needs, and derive proactive rules on a fresh Init.
func (g *Guard) apply(d Decisions) {
	for _, tr := range d.Transitions {
		g.record(tr)
		switch tr.To {
		case StateInit:
			g.detectedAttacks.Inc()
		case StateDegraded:
			g.degradedEntries.Inc()
			g.degradedAllowed = 0
		}
	}
	g.move(d.Moves)
	g.cache.SetRate(d.Rate)
	// The replay-rate controller runs from detection, phased from it,
	// until the drain completes; the tracker runs while the proactive
	// rules are in.
	st := g.policy.State()
	if g.rateTicker != nil && (d.Derive || st == StateIdle) {
		g.rateTicker.Stop()
		g.rateTicker = nil
	}
	if d.Derive {
		g.rateTicker = g.eng.NewTicker(adjustInterval, func() { g.step(TickAdjust) })
	}
	if tracking := st == StateDefense || st == StateDegraded; tracking && g.trackTicker == nil {
		g.trackTicker = g.eng.NewTicker(trackInterval, g.track)
	} else if !tracking && g.trackTicker != nil {
		g.trackTicker.Stop()
		g.trackTicker = nil
	}
	if d.Derive {
		g.derive()
	}
}

// derive substitutes live globals into the offline path conditions,
// installs the proactive rules, and reports them in once the derivation
// latency has passed in virtual time.
func (g *Guard) derive() {
	scoped, shared := g.ruleTargets()
	if _, _, err := g.analyzer.SyncScoped(scoped, shared); err != nil {
		return
	}
	latency := g.analyzer.LastDeriveDuration
	if g.cfg.Analyzer.ModeledDeriveLatency > 0 {
		latency = g.cfg.Analyzer.ModeledDeriveLatency
	}
	g.derived = g.eng.Schedule(latency, func() { g.step(TickDerived) })
}

// ruleTargets returns the datapath-scoped targets plus the shared ones.
func (g *Guard) ruleTargets() (map[uint64]RuleTarget, []RuleTarget) {
	if g.cfg.Analyzer.RulesInCache {
		return nil, []RuleTarget{tableTarget{tbl: g.cacheTbl, now: g.eng.Now}}
	}
	scoped := make(map[uint64]RuleTarget, len(g.switches))
	for dpid, ps := range g.switches {
		scoped[dpid] = datapathTarget{dp: ps.dp}
	}
	return scoped, nil
}

// move carries out the policy's migration changes, one datapath's run
// at a time: each is the port's TOS-tagging wildcard flow_mod to the
// cache port (§IV.C.1, Figure 6).
func (g *Guard) move(moves []PortMove) {
	for i, j := 0, 0; i < len(moves); i = j {
		dpid := moves[i].DPID
		dp, gained := g.switches[dpid].dp, 0
		for j = i; j < len(moves) && moves[j].DPID == dpid; j++ {
			switch m := moves[j]; {
			case !g.cfg.DisableINPORTTag:
				sendRule(dp, m.Divert, dpcache.MigrationRule(m.Port, g.cfg.CachePort))
			case m.Divert:
				gained++
			default:
				gained--
			}
		}
		if !g.cfg.DisableINPORTTag {
			continue
		}
		// Ablation: one untagged wildcard rule (TOS 0, INPORT lost), held
		// while any of the switch's ports is diverted.
		now := 0
		for _, d := range g.policy.Diverted() {
			if d.DPID == dpid {
				now++
			}
		}
		if was := now - gained; (was > 0) != (now > 0) {
			fm := dpcache.MigrationRule(0, g.cfg.CachePort)
			fm.Match = openflow.MatchAll()
			sendRule(dp, now > 0, fm)
		}
	}
	g.gMigratedPorts.Set(int64(len(g.policy.Diverted())))
}

// sendRule installs a diversion rule on dp, or strictly deletes it.
func sendRule(dp controller.Datapath, install bool, fm openflow.FlowMod) {
	fm.Command = openflow.FlowDeleteStrict
	if install {
		fm.Command = openflow.FlowAdd
	}
	dp.Send(openflow.Framed{Msg: fm})
}

// track is the application tracker: it re-derives and re-installs
// proactive rules when global state drifts, per the §IV.D strategy.
// Degraded keeps the tracker live: proactive rules sit in switch TCAM,
// not behind the sideband, and they matter more when migration is off.
func (g *Guard) track() {
	if !g.analyzer.NeedsUpdate() {
		return
	}
	scoped, shared := g.ruleTargets()
	_, _, _ = g.analyzer.SyncScoped(scoped, shared)
}

// CacheEmit implements dpcache.Sink: a scheduled packet is re-raised as a
// packet_in under its original datapath, transparently to the
// applications (§IV.C.1, the migration agent's third function).
func (g *Guard) CacheEmit(origin uint64, origInPort uint16, pkt netpkt.Packet, queued time.Duration) {
	ps, ok := g.switches[origin]
	if !ok {
		return
	}
	g.replayed.Inc()
	g.lastReplayNanos.Set(int64(queued))
	g.trace.Observe(telemetry.StageReraise, queued)
	if g.ReplayObserver != nil {
		g.ReplayObserver(origin, origInPort, &pkt, queued)
	}
	// Exact-size Marshal, not pooled scratch: pi.Data is retained by the
	// packet_in event the controller queues for its applications, so the
	// frame outlives this call.
	data := pkt.Marshal()
	pi := openflow.PacketIn{
		BufferID: openflow.NoBuffer,
		TotalLen: uint16(len(data)),
		InPort:   origInPort,
		Reason:   openflow.ReasonNoMatch,
		Data:     data,
	}
	g.replaying = true
	g.ctrl.InjectPacketIn(ps.dp, pi)
	g.replaying = false
}

// MigrationRate returns the most recent rate of packets being diverted
// into the cache (packets/second).
func (g *Guard) MigrationRate() float64 { return g.policy.MigrationRate() }

// PacketInRate returns the detector's smoothed data-plane packet_in rate.
func (g *Guard) PacketInRate() float64 { return g.policy.PacketInRate() }

var _ dpcache.Sink = (*Guard)(nil)
