package core

import (
	"fmt"
	"math"
	"time"

	"floodguard/internal/attrib"
	"floodguard/internal/controller"
	"floodguard/internal/dpcache"
	"floodguard/internal/flowtable"
	"floodguard/internal/journal"
	"floodguard/internal/netpkt"
	"floodguard/internal/netsim"
	"floodguard/internal/openflow"
	"floodguard/internal/switchsim"
	"floodguard/internal/telemetry"
)

// protectedSwitch is one datapath under FloodGuard's protection.
type protectedSwitch struct {
	sw    *switchsim.Switch
	dp    controller.Datapath
	cache *dpcache.Cache

	ingressPorts   []uint16 // from FeaturesReply, excluding the cache port
	migrationRules []openflow.FlowMod
	migrated       bool

	// Selective-migration state: diversion rules per individually
	// migrated port, plus the fallback port diverted when detection fires
	// before any port has crossed the blame threshold.
	portRules   map[uint16][]openflow.FlowMod
	fallback    uint16
	hasFallback bool

	bufferFrac float64 // latest utilization from StatsReply
}

// Guard is one FloodGuard deployment: it extends a controller with the
// proactive flow rule analyzer and the packet migration module, and
// coordinates them through the Figure 3 state machine.
type Guard struct {
	cfg  Config
	eng  *netsim.Engine
	ctrl *controller.Controller

	fsm      *fsm
	analyzer *Analyzer
	// attrib, when armed by cfg.Attribution.Enabled, blames ports and
	// sources; nil otherwise.
	attrib *attrib.Attributor

	switches map[uint64]*protectedSwitch
	caches   []*dpcache.Cache
	cacheTbl *flowtable.Table // §IV.E cache-resident rule table

	// jrec, when armed by SetJournal, records FSM transitions and
	// selective migrate/unmigrate actions. All record sites run on the
	// engine goroutine, satisfying the recorder's single-producer rule.
	jrec *journal.Recorder

	// Detector state.
	rateEWMA      *netsim.EWMA
	pktInsSample  int
	overSamples   int
	lastOver      time.Time
	lastMigrated  uint64 // cache Enqueued at previous sample
	migrationRate float64
	replaying     bool

	detectTicker *netsim.Ticker
	trackTicker  *netsim.Ticker
	rateTicker   *netsim.Ticker
	statsTicker  *netsim.Ticker
	drainTicker  *netsim.Ticker

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
	// gMigratedPorts mirrors the number of individually diverted ports
	// across all switches (selective mode; blanket migration leaves it 0).
	gMigratedPorts telemetry.Gauge

	// events is the FSM transition log (always on; ring of eventLogSize).
	events *telemetry.EventLog
	// trace, when armed by Instrument, samples packet lifecycles.
	trace *telemetry.Tracer

	// ReplayObserver, when set, sees every replayed packet with its
	// cache residence time (experiment instrumentation).
	ReplayObserver func(origin uint64, inPort uint16, pkt *netpkt.Packet, queued time.Duration)
}

// eventLogSize bounds the FSM transition ring.
const eventLogSize = 256

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

// LastReplayDelay is the cache residence time of the most recently
// replayed packet (Table IV's data plane cache column).
func (g *Guard) LastReplayDelay() time.Duration {
	return time.Duration(g.lastReplayNanos.Value())
}

// Events returns the retained FSM transition events, oldest first.
func (g *Guard) Events() []telemetry.Event { return g.events.Events() }

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
		fsm:            newFSM(),
		analyzer:       an,
		switches:       make(map[uint64]*protectedSwitch),
		rateEWMA:       netsim.NewEWMA(cfg.Detection.RateEWMAAlpha),
		cacheReachable: true,
		events:         telemetry.NewEventLog(eventLogSize),
	}
	g.stateGauge.Set(int64(StateIdle))
	g.fsm.onEnter = g.onTransition
	if cfg.Attribution.Enabled {
		g.attrib = attrib.New(cfg.Attribution.Params)
	}
	// Shared default cache (paper §IV.E: "ideally, we only need to deploy
	// one data plane cache to serve all switches").
	g.caches = []*dpcache.Cache{dpcache.New(eng, cfg.Cache, g)}
	g.armAttribution(g.caches[0])
	if cfg.Analyzer.RulesInCache {
		g.cacheTbl = flowtable.New(0)
		for _, c := range g.caches {
			c.UseRuleTable(g.cacheTbl)
		}
	}
	ctrl.AddHook(g.packetInHook)
	ctrl.AddMessageListener(g.onMessage)
	return g, nil
}

// AddCache creates an additional data plane cache for Protect to bind
// switches to (the §IV.E scalability option: one cache per subnet/rack).
func (g *Guard) AddCache() *dpcache.Cache {
	c := dpcache.New(g.eng, g.cfg.Cache, g)
	if g.cacheTbl != nil {
		c.UseRuleTable(g.cacheTbl)
	}
	g.armAttribution(c)
	g.caches = append(g.caches, c)
	return c
}

// armAttribution wires the attribution engine into a cache: verdicts
// split the replay queues (benign-priority scheduling) and every
// migrated packet feeds the blame detectors, which otherwise go blind on
// diverted ports.
func (g *Guard) armAttribution(c *dpcache.Cache) {
	if g.attrib == nil {
		return
	}
	c.SetHinter(g.attrib)
	c.SetObserver(g.attrib.ObservePacket)
}

// Attribution exposes the attribution engine (nil unless
// cfg.Attribution.Enabled).
func (g *Guard) Attribution() *attrib.Attributor { return g.attrib }

// selectiveActive reports whether per-port selective migration governs
// rule installation. The DisableINPORTTag ablation forces blanket mode:
// its single untagged rule cannot discriminate ports.
func (g *Guard) selectiveActive() bool {
	return g.attrib != nil && g.cfg.Attribution.Selective && !g.cfg.DisableINPORTTag
}

// PortMigrated reports whether an ingress port currently routes its
// table-miss traffic to the cache: its own diversion rules in selective
// mode, the switch-wide rule set in blanket mode. Engine goroutine only.
func (g *Guard) PortMigrated(dpid uint64, port uint16) bool {
	ps, ok := g.switches[dpid]
	if !ok {
		return false
	}
	if g.selectiveActive() {
		_, ok := ps.portRules[port]
		return ok
	}
	return ps.migrated
}

// MigratedPortCount returns how many ports are individually diverted
// (selective mode; 0 under blanket migration). Safe from any goroutine.
func (g *Guard) MigratedPortCount() int { return int(g.gMigratedPorts.Value()) }

// Caches returns the guard's data plane caches.
func (g *Guard) Caches() []*dpcache.Cache { return g.caches }

// Analyzer exposes the proactive flow rule analyzer.
func (g *Guard) Analyzer() *Analyzer { return g.analyzer }

// State returns the FSM state.
func (g *Guard) State() FSMState { return g.fsm.State() }

// onTransition records every FSM move into the event log with the key
// gauges at transition time; it runs on the engine goroutine, where all
// detector state is safe to read.
func (g *Guard) onTransition(tr Transition) {
	g.stateGauge.Set(int64(tr.To))
	var backlog int
	var enq uint64
	for _, c := range g.caches {
		s := c.Stats()
		backlog += s.Backlog
		enq += s.Enqueued
	}
	g.events.Append(telemetry.Event{
		Time:   tr.At,
		From:   tr.From.String(),
		To:     tr.To.String(),
		Reason: tr.Reason,
		Fields: map[string]float64{
			"cache_backlog":      float64(backlog),
			"cache_enqueued":     float64(enq),
			"packet_in_rate_pps": g.rateEWMA.Value(),
			"migration_rate_pps": g.migrationRate,
			"replayed":           float64(g.replayed.Value()),
			"degraded_drops":     float64(g.degradedDrops.Value()),
		},
	})
	g.jrec.Record(journal.KindFSM, uint8(tr.To), uint8(tr.From), 0, 0,
		g.rateEWMA.Value(), float64(backlog), g.migrationRate)
}

// SetJournal attaches a decision journal (journal.ForEngine layout):
// the guard takes the control recorder for FSM and migration events and
// forwards the attribution and cache recorders to its components. Call
// before Start, from the construction goroutine.
func (g *Guard) SetJournal(j *journal.Journal) {
	g.jrec = j.ControlRec()
	if g.attrib != nil {
		g.attrib.SetJournal(j.AttribRec())
	}
	for _, c := range g.caches {
		// All caches run on the one engine goroutine, so sharing the
		// cache-stage recorder keeps the single-producer rule intact.
		c.SetJournal(j.CacheRec())
	}
}

// Instrument attaches the guard, its FSM event log, its caches, and its
// controller to reg, and arms sampled pipeline tracing (one in
// cfg.TraceSampleEvery packets). It returns the tracer so deployments
// can wire it into their switches too. Call once, before Start.
func (g *Guard) Instrument(reg *telemetry.Registry) *telemetry.Tracer {
	every := g.cfg.TraceSampleEvery
	if every <= 0 {
		every = DefaultTraceSampleEvery
	}
	g.trace = telemetry.NewTracer(reg, every)
	for i, c := range g.caches {
		c.SetTracer(g.trace)
		prefix := "fg_cache"
		if i > 0 {
			prefix = fmt.Sprintf("fg_cache%d", i)
		}
		c.Register(reg, prefix)
	}
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
		"Ports individually diverted to the cache (selective migration).", &g.gMigratedPorts)
	if g.attrib != nil {
		g.attrib.Register(reg, "fg_attrib")
	}
	reg.GaugeFunc("fg_guard_last_replay_delay_seconds",
		"Cache residence time of the most recent replay.", func() float64 {
			return time.Duration(g.lastReplayNanos.Value()).Seconds()
		})
	reg.RegisterEventLog("fsm_transitions", g.events)
	g.analyzer.Register(reg)
	g.ctrl.Instrument(reg, "fg_controller")
	g.ctrl.SetTracer(g.trace)
	return g.trace
}

// Transitions returns the FSM history.
func (g *Guard) Transitions() []Transition { return g.fsm.History() }

// Protect places a switch under FloodGuard: its data plane cache is
// attached on cfg.CachePort and migration is armed. Call before Start.
// The switch must already be bound to the controller.
func (g *Guard) Protect(sw *switchsim.Switch) error {
	return g.ProtectWithCache(sw, g.caches[0])
}

// ProtectWithCache is Protect with an explicit cache assignment.
func (g *Guard) ProtectWithCache(sw *switchsim.Switch, cache *dpcache.Cache) error {
	dp, ok := g.ctrl.Datapath(sw.DPID)
	if !ok {
		return fmt.Errorf("floodguard: datapath %#x is not connected to the controller", sw.DPID)
	}
	if sw.DPID == 0 {
		return fmt.Errorf("floodguard: datapath id 0 is reserved")
	}
	ps := &protectedSwitch{sw: sw, dp: dp, cache: cache, portRules: make(map[uint16][]openflow.FlowMod)}
	sw.AttachPort(g.cfg.CachePort, cache.Adapter(sw.DPID), 1e9, 100*time.Microsecond)
	sw.SetNoFlood(g.cfg.CachePort, true)
	for _, p := range sw.Ports() {
		if p != g.cfg.CachePort {
			ps.ingressPorts = append(ps.ingressPorts, p)
		}
	}
	g.switches[sw.DPID] = ps
	return nil
}

// Start runs the offline preparation (Algorithm 1 for every app) and arms
// the monitoring component. Under normal circumstances only monitoring is
// active; everything else stays dormant (§II.D design objectives).
func (g *Guard) Start() error {
	if err := g.analyzer.Prepare(); err != nil {
		return err
	}
	for _, c := range g.caches {
		c.Start()
		c.SetRate(0) // dormant until an attack is detected
	}
	g.detectTicker = g.eng.NewTicker(g.cfg.Detection.SampleInterval, g.detect)
	g.statsTicker = g.eng.NewTicker(g.cfg.StatsPollInterval, g.pollStats)
	return nil
}

// Stop disarms all periodic work.
func (g *Guard) Stop() {
	for _, t := range []*netsim.Ticker{g.detectTicker, g.trackTicker, g.rateTicker, g.statsTicker, g.drainTicker} {
		if t != nil {
			t.Stop()
		}
	}
	for _, c := range g.caches {
		c.Stop()
	}
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
	if g.fsm.State() == StateDegraded {
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
	switch m := f.Msg.(type) {
	case openflow.FeaturesReply:
		ps, ok := g.switches[dp.DPID()]
		if !ok {
			return
		}
		ps.ingressPorts = ps.ingressPorts[:0]
		for _, p := range m.Ports {
			if p.PortNo != g.cfg.CachePort {
				ps.ingressPorts = append(ps.ingressPorts, p.PortNo)
			}
		}
	case openflow.StatsReply:
		ps, ok := g.switches[dp.DPID()]
		if !ok {
			return
		}
		if m.Table.BufferSize > 0 {
			ps.bufferFrac = float64(m.Table.BufferUsed) / float64(m.Table.BufferSize)
		}
	case openflow.PortStatus:
		g.onPortStatus(dp, m)
	}
}

// onPortStatus tracks topology changes: migration coverage must follow
// the live port set, or a port added mid-defense becomes an unmigrated
// path to the controller.
func (g *Guard) onPortStatus(dp controller.Datapath, m openflow.PortStatus) {
	ps, ok := g.switches[dp.DPID()]
	if !ok || m.Port.PortNo == g.cfg.CachePort {
		return
	}
	switch m.Reason {
	case openflow.PortAdded:
		for _, p := range ps.ingressPorts {
			if p == m.Port.PortNo {
				return
			}
		}
		ps.ingressPorts = append(ps.ingressPorts, m.Port.PortNo)
		// Selective mode leaves a fresh port alone: it has no blame yet,
		// and the per-window reconciliation diverts it if it earns some.
		if ps.migrated && !g.selectiveActive() {
			rules := dpcache.MigrationRules([]uint16{m.Port.PortNo}, g.cfg.CachePort)
			for _, fm := range rules {
				ps.dp.Send(openflow.Framed{Msg: fm})
			}
			ps.migrationRules = append(ps.migrationRules, rules...)
		}
	case openflow.PortDeleted:
		for i, p := range ps.ingressPorts {
			if p == m.Port.PortNo {
				ps.ingressPorts = append(ps.ingressPorts[:i:i], ps.ingressPorts[i+1:]...)
				break
			}
		}
		g.unmigratePort(ps, m.Port.PortNo)
		if ps.hasFallback && ps.fallback == m.Port.PortNo {
			ps.hasFallback = false
		}
		if ps.migrated {
			keep := ps.migrationRules[:0]
			for _, fm := range ps.migrationRules {
				if fm.Match.InPort == m.Port.PortNo {
					del := fm
					del.Command = openflow.FlowDeleteStrict
					ps.dp.Send(openflow.Framed{Msg: del})
					continue
				}
				keep = append(keep, fm)
			}
			ps.migrationRules = keep
		}
	}
}

func (g *Guard) pollStats() {
	for _, ps := range g.switches {
		ps.dp.Send(openflow.Framed{Msg: openflow.StatsRequest{}})
	}
}

// score computes the composite detection signal: the worst of the
// normalised packet_in rate and the normalised infrastructure
// utilization, so a slow attacker who exhausts buffers is still caught
// (§IV.C.1).
func (g *Guard) score(ratePPS float64) float64 {
	d := g.cfg.Detection
	if math.IsNaN(ratePPS) || ratePPS < 0 {
		// A poisoned rate sample (NaN EWMA seed, counter skew) must not
		// wedge the comparison chain below: NaN compares false against
		// everything, which would silently disable the rate component.
		ratePPS = 0
	}
	rateNorm := 0.0
	if d.RateThresholdPPS > 0 {
		rateNorm = ratePPS / d.RateThresholdPPS
	}
	util := 0.0
	for _, ps := range g.switches {
		if f := ps.bufferFrac; !math.IsNaN(f) && f > util {
			util = f
		}
	}
	if d.BacklogReference > 0 {
		if b := float64(g.ctrl.Backlog()) / float64(d.BacklogReference); b > util {
			util = b
		}
	}
	utilNorm := 0.0
	if d.UtilizationThreshold > 0 {
		utilNorm = util / d.UtilizationThreshold
	}
	if rateNorm > utilNorm {
		return rateNorm
	}
	return utilNorm
}

func (g *Guard) detect() {
	d := g.cfg.Detection
	perSec := float64(time.Second) / float64(d.SampleInterval)
	rate := g.rateEWMA.Observe(float64(g.pktInsSample) * perSec)
	g.pktInsSample = 0
	g.degradedAllowed = 0 // fresh direct-dispatch budget each window

	// Migration rate: what the caches are absorbing (attack-ongoing
	// signal while in Defense, when the controller no longer sees the
	// flood directly).
	var enq uint64
	for _, c := range g.caches {
		enq += c.Stats().Enqueued
	}
	g.migrationRate = float64(enq-g.lastMigrated) * perSec
	g.lastMigrated = enq

	score := g.score(rate)
	now := g.eng.Now()

	// Push the window's readings into scrape-safe gauges.
	g.gRate.Set(rate)
	g.gMigRate.Set(g.migrationRate)
	g.gScore.Set(score)

	// Close the attribution window first, so the transition handlers
	// below (and the per-port reconciliation) act on this window's
	// verdicts rather than last window's.
	if g.attrib != nil {
		g.attrib.Roll(d.SampleInterval)
		g.updateSelective()
	}

	switch g.fsm.State() {
	case StateIdle:
		if score >= 1 {
			g.overSamples++
			if g.overSamples >= d.TriggerSamples {
				g.onAttackDetected()
			}
		} else {
			g.overSamples = 0
		}
	case StateDefense:
		ongoing := score >= 1 || g.migrationRate >= d.RateThresholdPPS
		if ongoing {
			g.lastOver = now
		} else if now.Sub(g.lastOver) >= d.QuietPeriod {
			g.onAttackOver()
		}
	case StateDegraded:
		// Migration is withdrawn, so the controller sees the flood
		// directly again: the score alone decides whether it is over.
		if score >= 1 {
			g.lastOver = now
		} else if now.Sub(g.lastOver) >= d.QuietPeriod {
			g.onAttackOver()
		}
	case StateFinish:
		// Re-detection during drain re-enters Init.
		if score >= 1 || g.migrationRate >= d.RateThresholdPPS {
			g.overSamples++
			if g.overSamples >= d.TriggerSamples {
				g.onAttackDetected()
			}
		} else {
			g.overSamples = 0
		}
	}
}

// onAttackDetected drives Idle/Finish → Init → Defense: migrate
// table-miss traffic, derive and install proactive rules, start the
// replay rate controller.
func (g *Guard) onAttackDetected() {
	now := g.eng.Now()
	if err := g.fsm.to(StateInit, now, "saturation attack detected"); err != nil {
		return
	}
	g.detectedAttacks.Inc()
	g.overSamples = 0
	g.lastOver = now
	if g.drainTicker != nil {
		g.drainTicker.Stop()
		g.drainTicker = nil
	}

	// 1. Migrate: per-ingress-port wildcard rules to the cache port.
	// 2. Cache replay begins at the floor rate.
	// Both need the sideband; with it down, Defense is entered degraded
	// and the direct fallback limiter carries the load until it heals.
	if g.cacheReachable {
		for _, ps := range g.switches {
			g.installMigration(ps)
		}
		for _, c := range g.caches {
			c.SetRate(g.cfg.RateLimit.MinPPS)
		}
	}
	g.rateTicker = g.eng.NewTicker(g.cfg.RateLimit.AdjustInterval, g.adjustRate)

	// 3. Analyzer: substitute live globals into the offline path
	// conditions and install the proactive rules; Defense once ready.
	scoped, shared := g.ruleTargets()
	if _, _, err := g.analyzer.SyncScoped(scoped, shared); err != nil {
		return
	}
	latency := g.analyzer.LastDeriveDuration
	if g.cfg.Analyzer.ModeledDeriveLatency > 0 {
		latency = g.cfg.Analyzer.ModeledDeriveLatency
	}
	g.eng.Schedule(latency, func() {
		if g.fsm.State() == StateInit {
			g.enterDefense()
		}
	})
}

// enterDefense completes Init → Defense once the proactive rules are in.
func (g *Guard) enterDefense() {
	_ = g.fsm.to(StateDefense, g.eng.Now(), "proactive flow rules installed")
	g.trackTicker = g.eng.NewTicker(g.cfg.Analyzer.TrackInterval, g.track)
	if !g.cacheReachable {
		g.degrade()
	}
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

func (g *Guard) installMigration(ps *protectedSwitch) {
	if g.selectiveActive() {
		g.installSelective(ps)
		return
	}
	if ps.migrated {
		return
	}
	if g.cfg.DisableINPORTTag {
		// Ablation: one untagged wildcard rule; INPORT is lost.
		m := openflow.MatchAll()
		ps.migrationRules = []openflow.FlowMod{{
			Match:    m,
			Command:  openflow.FlowAdd,
			Priority: 1,
			BufferID: openflow.NoBuffer,
			OutPort:  openflow.PortNone,
			Actions: []openflow.Action{
				openflow.ActionSetNwTOS{TOS: 0},
				openflow.Output(g.cfg.CachePort),
			},
		}}
	} else {
		ps.migrationRules = dpcache.MigrationRules(ps.ingressPorts, g.cfg.CachePort)
	}
	for _, fm := range ps.migrationRules {
		ps.dp.Send(openflow.Framed{Msg: fm})
	}
	ps.migrated = true
}

func (g *Guard) removeMigration(ps *protectedSwitch) {
	for p := range ps.portRules {
		g.unmigratePort(ps, p)
	}
	ps.hasFallback = false
	if !ps.migrated {
		return
	}
	for _, fm := range ps.migrationRules {
		del := fm
		del.Command = openflow.FlowDeleteStrict
		ps.dp.Send(openflow.Framed{Msg: del})
	}
	ps.migrationRules = nil
	ps.migrated = false
}

// installSelective arms diversion for the ports attribution currently
// blames. When detection fired before any port crossed the blame
// threshold, the loudest port is diverted as a fallback so Defense never
// starts with zero coverage; the per-window reconciliation hands
// coverage to real verdicts as they land.
func (g *Guard) installSelective(ps *protectedSwitch) {
	ports := g.attrib.Suspects(ps.sw.DPID)
	if len(ports) == 0 {
		if p, _, ok := g.attrib.MaxBlamePort(ps.sw.DPID); ok {
			ports = []uint16{p}
			ps.fallback, ps.hasFallback = p, true
		}
	}
	for _, p := range ports {
		g.migratePort(ps, p)
	}
}

// updateSelective reconciles per-port diversion with this window's
// verdicts while defending: newly blamed ports are migrated, healed
// ports get their direct path back. Runs every detection window.
func (g *Guard) updateSelective() {
	if !g.selectiveActive() || !g.cacheReachable {
		return
	}
	if st := g.fsm.State(); st != StateInit && st != StateDefense {
		return
	}
	for _, ps := range g.switches {
		dpid := ps.sw.DPID
		anyBlamed := false
		for _, p := range ps.ingressPorts {
			if g.attrib.Blamed(dpid, p) {
				anyBlamed = true
				break
			}
		}
		if ps.hasFallback && anyBlamed {
			// A real verdict exists; the fallback designation expires and
			// the loop below keeps the port only if it is itself blamed.
			ps.hasFallback = false
		}
		for _, p := range ps.ingressPorts {
			keep := g.attrib.Blamed(dpid, p) || (ps.hasFallback && ps.fallback == p)
			if _, diverted := ps.portRules[p]; keep && !diverted {
				g.migratePort(ps, p)
			} else if !keep && diverted {
				g.unmigratePort(ps, p)
			}
		}
	}
}

// migratePort installs one port's diversion rules (selective mode).
func (g *Guard) migratePort(ps *protectedSwitch, port uint16) {
	if _, ok := ps.portRules[port]; ok || port == g.cfg.CachePort {
		return
	}
	rules := dpcache.MigrationRules([]uint16{port}, g.cfg.CachePort)
	for _, fm := range rules {
		ps.dp.Send(openflow.Framed{Msg: fm})
	}
	ps.portRules[port] = rules
	g.gMigratedPorts.Inc()
	g.jrec.Record(journal.KindMigrate, 0, 0, ps.dp.DPID(), port, 0, 0, 0)
}

// unmigratePort withdraws one port's diversion rules.
func (g *Guard) unmigratePort(ps *protectedSwitch, port uint16) {
	rules, ok := ps.portRules[port]
	if !ok {
		return
	}
	for _, fm := range rules {
		del := fm
		del.Command = openflow.FlowDeleteStrict
		ps.dp.Send(openflow.Framed{Msg: del})
	}
	delete(ps.portRules, port)
	g.gMigratedPorts.Dec()
	g.jrec.Record(journal.KindUnmigrate, 0, 0, ps.dp.DPID(), port, 0, 0, 0)
}

// track is the application tracker: it re-derives and re-installs
// proactive rules when global state drifts, per the §IV.D strategy.
// Degraded keeps the tracker live: proactive rules sit in switch TCAM,
// not behind the sideband, and they matter more when migration is off.
func (g *Guard) track() {
	if st := g.fsm.State(); st != StateDefense && st != StateDegraded {
		return
	}
	if !g.analyzer.NeedsUpdate() {
		return
	}
	scoped, shared := g.ruleTargets()
	_, _, _ = g.analyzer.SyncScoped(scoped, shared)
}

// adjustRate is the agent's AIMD replay-rate controller: it grows the
// cache's packet_in rate while the controller has headroom and backs off
// when backlog builds.
func (g *Guard) adjustRate() {
	if !g.cacheReachable {
		return // replay rides the sideband; nothing to steer while it is down
	}
	rl := g.cfg.RateLimit
	backlog := g.ctrl.Backlog()
	for _, c := range g.caches {
		rate := c.Rate()
		switch {
		case backlog > rl.TargetBacklog:
			rate /= 2
		case backlog < rl.TargetBacklog/2:
			rate *= rl.Growth
		}
		if rate < rl.MinPPS {
			rate = rl.MinPPS
		}
		if rate > rl.MaxPPS {
			rate = rl.MaxPPS
		}
		c.SetRate(rate)
	}
}

// onAttackOver drives Defense → Finish: stop migrating, keep draining.
func (g *Guard) onAttackOver() {
	if err := g.fsm.to(StateFinish, g.eng.Now(), "attack traffic subsided"); err != nil {
		return
	}
	for _, ps := range g.switches {
		g.removeMigration(ps)
	}
	if g.trackTicker != nil {
		g.trackTicker.Stop()
		g.trackTicker = nil
	}
	g.overSamples = 0
	g.drainTicker = g.eng.NewTicker(g.cfg.Detection.SampleInterval, g.checkDrained)
}

func (g *Guard) checkDrained() {
	if g.fsm.State() != StateFinish {
		return
	}
	if !g.cacheReachable {
		return // queued packets cannot replay until the sideband heals
	}
	for _, c := range g.caches {
		if !c.Drained() {
			return
		}
	}
	_ = g.fsm.to(StateIdle, g.eng.Now(), "data plane cache drained")
	if g.drainTicker != nil {
		g.drainTicker.Stop()
		g.drainTicker = nil
	}
	if g.rateTicker != nil {
		g.rateTicker.Stop()
		g.rateTicker = nil
	}
	for _, c := range g.caches {
		c.SetRate(0) // back to dormant
	}
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
// into the caches (packets/second).
func (g *Guard) MigrationRate() float64 { return g.migrationRate }

// PacketInRate returns the detector's smoothed data-plane packet_in rate.
func (g *Guard) PacketInRate() float64 { return g.rateEWMA.Value() }

var _ dpcache.Sink = (*Guard)(nil)
