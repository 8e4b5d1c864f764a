// Package controller implements a reactive OpenFlow controller platform
// in the style of POX (paper Table II): datapath sessions, an event
// dispatch loop, and packet_in handler applications written in the appir
// policy IR.
//
// The platform models controller compute as a serial executor: every
// packet_in costs the platform a base demultiplex time plus each
// registered application's per-event cost. Per-application busy time is
// accounted so experiments can report CPU utilization per app
// (Figure 12).
package controller

import (
	"time"

	"floodguard/internal/appir"
	"floodguard/internal/netpkt"
	"floodguard/internal/netsim"
	"floodguard/internal/openflow"
	"floodguard/internal/telemetry"
)

// Datapath is a controller-side handle to one connected switch.
type Datapath interface {
	// DPID returns the datapath id.
	DPID() uint64
	// Send transmits a controller→switch message.
	Send(f openflow.Framed)
}

// App couples a policy program with its state and a compute cost model.
type App struct {
	Prog *appir.Program
	// State holds the app's global variables. For PerDatapath apps it is
	// the template each datapath's private copy is cloned from.
	State *appir.State
	// CostPerEvent is the CPU time one packet_in costs this app.
	CostPerEvent time.Duration
	// PerDatapath gives every datapath its own copy of the global state,
	// the way POX instantiates l2_learning once per switch. Required for
	// port-valued state (macToPort) to be meaningful across switches.
	PerDatapath bool

	states   map[uint64]*appir.State
	dpStates []DatapathState // states in creation order

	busy time.Duration
}

// StateFor returns the state the app uses for events from a datapath.
func (a *App) StateFor(dpid uint64) *appir.State {
	if !a.PerDatapath {
		return a.State
	}
	if a.states == nil {
		a.states = make(map[uint64]*appir.State)
	}
	st, ok := a.states[dpid]
	if !ok {
		st = a.State.Clone()
		a.states[dpid] = st
		a.dpStates = append(a.dpStates, DatapathState{DPID: dpid, State: st})
	}
	return st
}

// DatapathState is one datapath's private copy of a PerDatapath app's
// state.
type DatapathState struct {
	DPID  uint64
	State *appir.State
}

// DatapathStates returns the per-datapath states created so far, in
// creation order (empty for shared-state apps). The slice is the app's
// own, so reading it allocates nothing; callers must not modify it, and
// must read it on the goroutine that dispatches the app's events.
func (a *App) DatapathStates() []DatapathState { return a.dpStates }

// Name returns the program name.
func (a *App) Name() string { return a.Prog.Name }

// TakeBusy returns and resets the busy time accumulated since the last
// call — the utilization sampling primitive.
func (a *App) TakeBusy() time.Duration {
	b := a.busy
	a.busy = 0
	return b
}

// PacketInEvent is a parsed packet_in as delivered to hooks.
type PacketInEvent struct {
	Datapath Datapath
	Msg      openflow.PacketIn
	Packet   netpkt.Packet
}

// Hook observes packet_in events before app dispatch. Returning false
// suppresses dispatch (the packet is dropped at the platform layer).
type Hook func(ev *PacketInEvent) bool

// Controller is the platform.
type Controller struct {
	eng *netsim.Engine

	// BaseCost is the platform's per-packet_in demultiplex cost (serial
	// CPU occupancy).
	BaseCost time.Duration

	// ExtraLatency is additional pipeline latency per packet_in decision
	// (scheduling, I/O, interpreter overhead) that does NOT occupy the
	// executor — it delays the decision without reducing throughput.
	ExtraLatency time.Duration

	apps      []*App
	datapaths map[uint64]Datapath
	hooks     []Hook
	listeners []func(dp Datapath, f openflow.Framed)

	busyUntil time.Time
	nextXID   uint32

	// Counters are atomic so accessors and registry scrapes are safe
	// from any goroutine while the engine runs.
	packetIns    telemetry.Counter
	suppressed   telemetry.Counter
	flowModsOut  telemetry.Counter
	sessions     telemetry.Gauge
	backlogNanos telemetry.Gauge // mirrors busyUntil-now at last dispatch

	// trace, when set, records sampled packet_in decision latencies into
	// the flow_install stage histogram (nil-safe).
	trace *telemetry.Tracer
}

// New creates a controller on the engine.
func New(eng *netsim.Engine) *Controller {
	return &Controller{
		eng:       eng,
		datapaths: make(map[uint64]Datapath),
	}
}

// Register adds an application; dispatch order is registration order.
func (c *Controller) Register(app *App) { c.apps = append(c.apps, app) }

// Apps returns the registered applications.
func (c *Controller) Apps() []*App { return c.apps }

// AddHook installs a pre-dispatch packet_in hook (FloodGuard's migration
// agent uses one for flood detection).
func (c *Controller) AddHook(h Hook) { c.hooks = append(c.hooks, h) }

// AddMessageListener observes every switch→controller message (used for
// stats polling replies).
func (c *Controller) AddMessageListener(fn func(dp Datapath, f openflow.Framed)) {
	c.listeners = append(c.listeners, fn)
}

// Connect registers a datapath session. A reconnecting datapath (same
// DPID, new handle) simply replaces its old session: applications and
// FloodGuard keep addressing the DPID and transparently reach the new
// channel.
func (c *Controller) Connect(dp Datapath) {
	if _, ok := c.datapaths[dp.DPID()]; !ok {
		c.sessions.Inc()
	}
	c.datapaths[dp.DPID()] = dp
	dp.Send(openflow.Framed{XID: c.xid(), Msg: openflow.Hello{}})
	dp.Send(openflow.Framed{XID: c.xid(), Msg: openflow.FeaturesRequest{}})
}

// Datapath returns a connected datapath by id.
func (c *Controller) Datapath(dpid uint64) (Datapath, bool) {
	dp, ok := c.datapaths[dpid]
	return dp, ok
}

// PacketIns returns the number of packet_in events accepted for dispatch.
func (c *Controller) PacketIns() uint64 { return c.packetIns.Value() }

// SetTracer wires the pipeline tracer; sampled packet_in decisions
// record their dispatch-to-enact latency into the flow_install stage
// histogram. A nil tracer disables tracing.
func (c *Controller) SetTracer(t *telemetry.Tracer) { c.trace = t }

// Instrument attaches the platform's counters to reg under the given
// metric name prefix (e.g. "fg_controller").
func (c *Controller) Instrument(reg *telemetry.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.RegisterCounter(prefix+"_packet_ins_total", "Packet_in events accepted for dispatch.", &c.packetIns)
	reg.RegisterCounter(prefix+"_suppressed_total", "Packet_ins suppressed by platform hooks.", &c.suppressed)
	reg.RegisterCounter(prefix+"_flow_mods_total", "Flow_mods emitted to switches.", &c.flowModsOut)
	reg.RegisterGauge(prefix+"_sessions", "Connected datapath sessions.", &c.sessions)
	reg.GaugeFunc(prefix+"_backlog_seconds", "Serial executor backlog at last dispatch.", func() float64 {
		return time.Duration(c.backlogNanos.Value()).Seconds()
	})
}

// Backlog returns how much queued compute the serial executor still owes
// — the controller-load signal FloodGuard's detector and rate limiter
// read.
func (c *Controller) Backlog() time.Duration {
	if b := c.busyUntil.Sub(c.eng.Now()); b > 0 {
		return b
	}
	return 0
}

func (c *Controller) xid() uint32 {
	c.nextXID++
	return c.nextXID
}

// HandleMessage processes one switch→controller message. The simulated
// control channel that Bind wires up calls it.
func (c *Controller) HandleMessage(dp Datapath, f openflow.Framed) {
	for _, l := range c.listeners {
		l(dp, f)
	}
	switch m := f.Msg.(type) {
	case openflow.Hello:
		// Session open; nothing further.
	case openflow.EchoRequest:
		dp.Send(openflow.Framed{XID: f.XID, Msg: openflow.EchoReply{Data: m.Data}})
	case openflow.PacketIn:
		c.handlePacketIn(dp, m)
	case openflow.FeaturesReply, openflow.BarrierReply, openflow.StatsReply,
		openflow.FlowRemoved, openflow.PortStatus, openflow.EchoReply, openflow.Error:
		// Observed via listeners.
	default:
		// Ignore unexpected message types; a production controller
		// would log them.
		_ = m
	}
}

// InjectPacketIn re-raises a packet_in under an existing datapath — the
// migration agent uses it to replay cached packets transparently, "with
// the original datapath information" (paper §IV.C.1).
func (c *Controller) InjectPacketIn(dp Datapath, pi openflow.PacketIn) {
	c.handlePacketIn(dp, pi)
}

func (c *Controller) handlePacketIn(dp Datapath, pi openflow.PacketIn) {
	pkt, err := netpkt.Parse(pi.Data)
	if err != nil {
		return
	}
	ev := &PacketInEvent{Datapath: dp, Msg: pi, Packet: pkt}
	for _, h := range c.hooks {
		if !h(ev) {
			c.suppressed.Inc()
			return
		}
	}
	c.packetIns.Inc()

	// Serial executor: compute starts when the previous event's work is
	// done, and the decision is enacted when this event's work is done.
	now := c.eng.Now()
	start := now
	if c.busyUntil.After(start) {
		start = c.busyUntil
	}
	finish := start.Add(c.BaseCost)

	type appWork struct {
		app *App
		d   appir.Decision
	}
	var works []appWork
	handled := false
	for _, app := range c.apps {
		d, err := appir.Exec(app.Prog, app.StateFor(dp.DPID()), &ev.Packet, pi.InPort)
		if err != nil {
			continue
		}
		app.busy += app.CostPerEvent
		finish = finish.Add(app.CostPerEvent)
		if !handled && (len(d.Installs) > 0 || len(d.Outputs) > 0 || d.Dropped) {
			// First app with an opinion owns the packet (POX's event
			// halt); later apps still see the event for learning.
			works = append(works, appWork{app: app, d: d})
			handled = true
		}
	}
	c.busyUntil = finish
	c.backlogNanos.Set(int64(finish.Sub(now)))
	if c.trace.Sample() {
		c.trace.Observe(telemetry.StageFlowInstall, finish.Add(c.ExtraLatency).Sub(now))
	}

	c.eng.At(finish.Add(c.ExtraLatency), func() {
		for _, w := range works {
			c.enact(dp, pi, w.app, w.d)
		}
		if !handled {
			// No app claimed the packet: release the buffer as a drop.
			if pi.BufferID != openflow.NoBuffer {
				dp.Send(openflow.Framed{XID: c.xid(), Msg: openflow.PacketOut{
					BufferID: pi.BufferID,
					InPort:   pi.InPort,
				}})
			}
		}
	})
}

func (c *Controller) enact(dp Datapath, pi openflow.PacketIn, app *App, d appir.Decision) {
	buffer := pi.BufferID
	for _, rule := range d.Installs {
		fm := openflow.FlowMod{
			Match:       rule.Match,
			Command:     openflow.FlowAdd,
			IdleTimeout: rule.IdleTimeout,
			HardTimeout: rule.HardTimeout,
			Priority:    rule.Priority,
			BufferID:    buffer, // first install forwards the buffered packet
			OutPort:     openflow.PortNone,
			Actions:     rule.Actions,
		}
		buffer = openflow.NoBuffer
		c.flowModsOut.Inc()
		dp.Send(openflow.Framed{XID: c.xid(), Msg: fm})
	}
	if len(d.Installs) > 0 && pi.BufferID == openflow.NoBuffer && len(d.Outputs) > 0 {
		// The packet was not buffered (amplified packet_in): forward the
		// attached frame explicitly alongside the install.
		dp.Send(openflow.Framed{XID: c.xid(), Msg: openflow.PacketOut{
			BufferID: openflow.NoBuffer,
			InPort:   pi.InPort,
			Actions:  d.Outputs,
			Data:     pi.Data,
		}})
	}
	if len(d.Installs) == 0 && (len(d.Outputs) > 0 || d.Dropped) {
		po := openflow.PacketOut{
			BufferID: buffer,
			InPort:   pi.InPort,
			Actions:  d.Outputs, // empty = drop
		}
		if buffer == openflow.NoBuffer {
			po.Data = pi.Data
		}
		dp.Send(openflow.Framed{XID: c.xid(), Msg: po})
	}
}
