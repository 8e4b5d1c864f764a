package switchsim

import (
	"fmt"
	"math"
	"time"

	"floodguard/internal/flowtable"
	"floodguard/internal/netpkt"
	"floodguard/internal/netsim"
	"floodguard/internal/openflow"
	"floodguard/internal/telemetry"
)

// PortPeer receives frames the switch forwards out of a port.
type PortPeer interface {
	DeliverFromSwitch(pkt netpkt.Packet)
}

// ControlPlane receives the switch's OpenFlow messages (already delayed
// by the control channel model).
type ControlPlane interface {
	FromSwitch(sw *Switch, f openflow.Framed)
}

type port struct {
	no      uint16
	peer    PortPeer
	down    *netsim.Link // switch -> peer
	noFlood bool         // OFPPC_NO_FLOOD: skipped by flood/all outputs
}

type bufferedPacket struct {
	pkt    netpkt.Packet
	inPort uint16
	expiry *netsim.Event
}

// Stats is a snapshot of switch health, the utilization signals the
// migration agent's detector consumes.
type Stats struct {
	MissRatePPS   float64
	BufferUsed    int
	BufferSlots   int
	TableRules    int
	TableCapacity int
	Forwarded     uint64
	Missed        uint64
	DroppedNoRule uint64
	PacketIns     uint64
	AmplifiedIns  uint64
}

// Switch is one simulated OpenFlow switch.
type Switch struct {
	DPID    uint64
	eng     *netsim.Engine
	profile Profile
	table   *flowtable.Table

	ports map[uint16]*port

	ctl     ControlPlane
	ctlUp   *netsim.Link // switch -> controller
	ctlDown *netsim.Link // controller -> switch

	buffer    map[uint32]*bufferedPacket
	nextBufID uint32
	missEWMA  *netsim.EWMA
	missCount int
	fwdEWMA   *netsim.EWMA
	fwdCount  int
	sampler   *netsim.Ticker
	expirer   *netsim.Ticker
	nextXID   uint32

	// Per-packet counters are atomics and the EWMA/buffer scalars are
	// mirrored into gauges at their mutation points, so Stats() and a
	// registry scrape never race the engine goroutine.
	forwarded    telemetry.Counter
	missed       telemetry.Counter
	droppedNoRul telemetry.Counter
	packetIns    telemetry.Counter
	amplifiedIns telemetry.Counter
	missRatePPS  telemetry.FloatGauge
	bufUsed      telemetry.Gauge

	trace *telemetry.Tracer
}

// sampleInterval is the health sampling period for rate EWMAs.
const sampleInterval = 100 * time.Millisecond

// New creates a switch on the engine with the given datapath id and
// profile. Call Start to arm its periodic tasks and Stop to disarm them.
func New(eng *netsim.Engine, dpid uint64, profile Profile) *Switch {
	return &Switch{
		DPID:     dpid,
		eng:      eng,
		profile:  profile,
		table:    flowtable.New(profile.TableCapacity),
		ports:    make(map[uint16]*port),
		buffer:   make(map[uint32]*bufferedPacket),
		missEWMA: netsim.NewEWMA(0.3),
		fwdEWMA:  netsim.NewEWMA(0.3),
	}
}

// Profile returns the capacity profile.
func (s *Switch) Profile() Profile { return s.profile }

// Table exposes the flow table (read-mostly; used by experiments and the
// analyzer's verification).
func (s *Switch) Table() *flowtable.Table { return s.table }

// AttachPort registers a peer on a numbered port; the switch→peer
// direction uses a link with the given bandwidth and latency. If a
// controller session is up, a PortStatus notification is emitted — the
// topology-change signal the paper's dynamic policies react to.
func (s *Switch) AttachPort(no uint16, peer PortPeer, bandwidthBits float64, latency time.Duration) {
	_, existed := s.ports[no]
	s.ports[no] = &port{
		no:   no,
		peer: peer,
		down: netsim.NewLink(s.eng, bandwidthBits, latency),
	}
	if s.ctl != nil && !existed {
		s.sendToController(openflow.PortStatus{
			Reason: openflow.PortAdded,
			Port:   openflow.PhyPort{PortNo: no, Name: fmt.Sprintf("eth%d", no)},
		})
	}
}

// DetachPort removes a port, notifying the controller when a session is
// up.
func (s *Switch) DetachPort(no uint16) {
	if _, ok := s.ports[no]; !ok {
		return
	}
	delete(s.ports, no)
	if s.ctl != nil {
		s.sendToController(openflow.PortStatus{
			Reason: openflow.PortDeleted,
			Port:   openflow.PhyPort{PortNo: no, Name: fmt.Sprintf("eth%d", no)},
		})
	}
}

// SetNoFlood marks a port as excluded from flood/all outputs
// (OFPPC_NO_FLOOD); FloodGuard sets it on the data plane cache port so
// flooded packet_outs do not re-enter the cache.
func (s *Switch) SetNoFlood(no uint16, v bool) {
	if p, ok := s.ports[no]; ok {
		p.noFlood = v
	}
}

// Ports returns the attached port numbers in unspecified order.
func (s *Switch) Ports() []uint16 {
	out := make([]uint16, 0, len(s.ports))
	for no := range s.ports {
		out = append(out, no)
	}
	return out
}

// SetControlPlane wires the switch to a controller through a modelled
// control channel.
func (s *Switch) SetControlPlane(ctl ControlPlane) {
	s.ctl = ctl
	s.ctlUp = netsim.NewLink(s.eng, s.profile.ChannelBits, s.profile.ChannelLatency)
	s.ctlDown = netsim.NewLink(s.eng, s.profile.ChannelBits, s.profile.ChannelLatency)
}

// Start arms the health sampler and flow expiry tasks.
func (s *Switch) Start() {
	s.sampler = s.eng.NewTicker(sampleInterval, s.sample)
	s.expirer = s.eng.NewTicker(time.Second, s.expire)
}

// Stop disarms periodic tasks.
func (s *Switch) Stop() {
	if s.sampler != nil {
		s.sampler.Stop()
	}
	if s.expirer != nil {
		s.expirer.Stop()
	}
}

func (s *Switch) sample() {
	perSec := float64(time.Second) / float64(sampleInterval)
	s.missRatePPS.Set(s.missEWMA.Observe(float64(s.missCount) * perSec))
	s.fwdEWMA.Observe(float64(s.fwdCount) * perSec)
	s.missCount = 0
	s.fwdCount = 0
}

func (s *Switch) expire() {
	for _, rm := range s.table.Expire(s.eng.Now()) {
		if rm.Entry.NotifyRem {
			s.sendToController(openflow.FlowRemoved{
				Match:       rm.Entry.Match,
				Cookie:      rm.Entry.Cookie,
				Priority:    rm.Entry.Priority,
				Reason:      rm.Reason,
				PacketCount: rm.Entry.Packets,
				ByteCount:   rm.Entry.Bytes,
			})
		}
	}
}

// Stats returns a health snapshot. Safe to call from any goroutine: every
// field reads an atomic or a mirrored gauge.
func (s *Switch) Stats() Stats {
	return Stats{
		MissRatePPS:   s.missRatePPS.Value(),
		BufferUsed:    int(s.bufUsed.Value()),
		BufferSlots:   s.profile.BufferSlots,
		TableRules:    s.table.RuleCount(),
		TableCapacity: s.profile.TableCapacity,
		Forwarded:     s.forwarded.Value(),
		Missed:        s.missed.Value(),
		DroppedNoRule: s.droppedNoRul.Value(),
		PacketIns:     s.packetIns.Value(),
		AmplifiedIns:  s.amplifiedIns.Value(),
	}
}

// SetTracer attaches a pipeline tracer; sampled table misses then record
// the packet_in stage (miss processing plus control channel transit).
func (s *Switch) SetTracer(t *telemetry.Tracer) { s.trace = t }

// Instrument attaches the switch's counters and gauges to reg under the
// given metric name prefix (e.g. "fg_switch") and registers the flow
// table under prefix+"_table".
func (s *Switch) Instrument(reg *telemetry.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.RegisterCounter(prefix+"_forwarded_total", "Packets matched and forwarded by the datapath.", &s.forwarded)
	reg.RegisterCounter(prefix+"_missed_total", "Table-miss packets.", &s.missed)
	reg.RegisterCounter(prefix+"_dropped_total", "Packets dropped by rule or for lack of a controller.", &s.droppedNoRul)
	reg.RegisterCounter(prefix+"_packet_ins_total", "packet_in messages emitted to the control plane.", &s.packetIns)
	reg.RegisterCounter(prefix+"_amplified_ins_total", "packet_ins carrying the full frame (buffer exhausted).", &s.amplifiedIns)
	reg.RegisterFloatGauge(prefix+"_miss_rate_pps", "EWMA table-miss rate (packets/sec).", &s.missRatePPS)
	reg.RegisterGauge(prefix+"_buffer_used", "Occupied packet buffer slots.", &s.bufUsed)
	reg.GaugeFunc(prefix+"_buffer_slots", "Total packet buffer slots.", func() float64 {
		return float64(s.profile.BufferSlots)
	})
	s.table.Register(reg, prefix+"_table")
}

// LookupCost returns the current per-packet lookup latency given the
// installed rule count.
func (s *Switch) LookupCost() time.Duration {
	return flowtable.SoftwareLookupCost(s.table.Len(), s.profile.LookupBase, s.profile.LookupPerRule)
}

// ControlShareConsumed returns the fraction of the datapath budget the
// control path is consuming at the observed miss rate.
func (s *Switch) ControlShareConsumed() float64 {
	if s.profile.CollapseRatePPS <= 0 {
		return 0
	}
	x := s.missRatePPS.Value() / s.profile.CollapseRatePPS
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	return math.Pow(x, s.profile.CollapseExp)
}

// GoodputShare returns the fraction of DataRateBits currently available
// to bulk benign traffic: what the control path leaves over, further
// reduced by per-packet lookup work spent on the discrete (attack and
// replay) traffic transiting the datapath.
func (s *Switch) GoodputShare() float64 {
	share := 1 - s.ControlShareConsumed()
	if share < 0 {
		share = 0
	}
	lookupLoad := s.fwdEWMA.Value() * s.LookupCost().Seconds()
	share *= 1 - math.Min(lookupLoad, 1)
	if share < 0 {
		share = 0
	}
	return share
}

// Inject delivers a packet into the switch on inPort. This is the
// datapath entry point used by hosts and traffic generators.
func (s *Switch) Inject(pkt netpkt.Packet, inPort uint16) {
	frameLen := estimateFrameLen(&pkt)
	entry := s.table.Lookup(&pkt, inPort, s.eng.Now(), frameLen)
	if entry == nil {
		s.miss(pkt, inPort, frameLen)
		return
	}
	s.forwarded.Inc()
	s.fwdCount++
	if len(entry.Actions) == 0 {
		s.droppedNoRul.Inc() // explicit drop rule
		return
	}
	out := pkt
	ports := openflow.ApplyActions(&out, entry.Actions)
	s.emit(out, inPort, ports, frameLen)
}

func (s *Switch) miss(pkt netpkt.Packet, inPort uint16, frameLen int) {
	s.missed.Inc()
	s.missCount++
	if s.ctl == nil {
		s.droppedNoRul.Inc()
		return
	}
	msg := openflow.PacketIn{
		TotalLen: uint16(frameLen),
		InPort:   inPort,
		Reason:   openflow.ReasonNoMatch,
	}
	if len(s.buffer) < s.profile.BufferSlots {
		id := s.nextBufID
		s.nextBufID++
		bp := &bufferedPacket{pkt: pkt, inPort: inPort}
		if s.profile.BufferTimeout > 0 {
			bp.expiry = s.eng.Schedule(s.profile.BufferTimeout, func() {
				delete(s.buffer, id)
				s.bufUsed.Set(int64(len(s.buffer)))
			})
		}
		s.buffer[id] = bp
		s.bufUsed.Set(int64(len(s.buffer)))
		msg.BufferID = id
		data := pkt.Marshal()
		if max := s.profile.PacketInHeaderBytes; max > 0 && len(data) > max {
			data = data[:max]
		}
		msg.Data = data
	} else {
		// Buffer exhausted: the whole frame rides the control channel.
		msg.BufferID = openflow.NoBuffer
		msg.Data = pkt.Marshal()
		s.amplifiedIns.Inc()
	}
	s.packetIns.Inc()
	var t0 time.Time
	if s.trace.Sample() {
		t0 = s.eng.Now()
	}
	s.eng.Schedule(s.profile.MissProcDelay, func() { s.sendTraced(msg, t0) })
}

func (s *Switch) sendToController(m openflow.Message) { s.sendTraced(m, time.Time{}) }

// sendTraced sends an unsolicited m up the control channel under the
// next switch xid. A non-zero since marks a sampled miss: its packet_in
// stage, miss processing plus control channel transit, is recorded on
// delivery.
func (s *Switch) sendTraced(m openflow.Message, since time.Time) {
	if s.ctl == nil {
		return
	}
	s.nextXID++
	s.send(s.nextXID, m, since)
}

// reply answers the controller's request req under req's xid, as
// OpenFlow 1.0 requires of a reply and of the error a refused request
// draws.
func (s *Switch) reply(req openflow.Framed, m openflow.Message) {
	if s.ctl != nil {
		s.send(req.XID, m, time.Time{})
	}
}

func (s *Switch) send(xid uint32, m openflow.Message, since time.Time) {
	s.ctlUp.Send(openflow.FrameLen(m), func() {
		if !since.IsZero() {
			s.trace.Observe(telemetry.StagePacketIn, s.eng.Now().Sub(since))
		}
		s.ctl.FromSwitch(s, openflow.Framed{XID: xid, Msg: m})
	})
}

// FromController delivers a controller→switch message through the
// control channel model.
func (s *Switch) FromController(f openflow.Framed) {
	s.ctlDown.Send(openflow.FrameLen(f.Msg), func() {
		s.handleControl(f)
	})
}

func (s *Switch) handleControl(f openflow.Framed) {
	switch m := f.Msg.(type) {
	case openflow.Hello:
		s.sendToController(openflow.Hello{})
	case openflow.EchoRequest:
		s.reply(f, openflow.EchoReply{Data: m.Data})
	case openflow.FeaturesRequest:
		ports := make([]openflow.PhyPort, 0, len(s.ports))
		for no := range s.ports {
			ports = append(ports, openflow.PhyPort{PortNo: no, Name: fmt.Sprintf("eth%d", no)})
		}
		s.reply(f, openflow.FeaturesReply{
			DatapathID: s.DPID,
			NBuffers:   uint32(s.profile.BufferSlots),
			NTables:    1,
			Ports:      ports,
		})
	case openflow.FlowMod:
		if _, err := s.table.Apply(m, s.eng.Now()); err != nil {
			s.reply(f, openflow.Error{ErrType: 3 /* flow_mod_failed */, Code: 0 /* all_tables_full */})
			return
		}
		if m.Command == openflow.FlowAdd && m.BufferID != openflow.NoBuffer {
			s.releaseBuffer(m.BufferID, m.Actions)
		}
	case openflow.PacketOut:
		s.packetOut(m)
	case openflow.BarrierRequest:
		s.reply(f, openflow.BarrierReply{})
	case openflow.StatsRequest:
		st := s.Stats()
		s.reply(f, openflow.StatsReply{Table: openflow.TableStats{
			ActiveRules:  uint32(st.TableRules),
			MaxRules:     uint32(st.TableCapacity),
			BufferUsed:   uint32(st.BufferUsed),
			BufferSize:   uint32(st.BufferSlots),
			LookupCount:  st.Forwarded + st.Missed,
			MatchedCount: st.Forwarded,
			DroppedInput: st.DroppedNoRule,
		}})
	}
}

func (s *Switch) packetOut(m openflow.PacketOut) {
	if m.BufferID != openflow.NoBuffer {
		s.releaseBuffer(m.BufferID, m.Actions)
		return
	}
	pkt, err := netpkt.Parse(m.Data)
	if err != nil {
		return
	}
	frameLen := len(m.Data)
	out := pkt
	ports := openflow.ApplyActions(&out, m.Actions)
	s.emit(out, m.InPort, ports, frameLen)
}

func (s *Switch) releaseBuffer(id uint32, actions []openflow.Action) {
	bp, ok := s.buffer[id]
	if !ok {
		return
	}
	delete(s.buffer, id)
	s.bufUsed.Set(int64(len(s.buffer)))
	if bp.expiry != nil {
		bp.expiry.Cancel()
	}
	if len(actions) == 0 {
		return // drop
	}
	out := bp.pkt
	ports := openflow.ApplyActions(&out, actions)
	s.emit(out, bp.inPort, ports, estimateFrameLen(&out))
}

// emit forwards a processed packet to the resolved output ports after the
// current lookup cost, honouring flood semantics.
func (s *Switch) emit(pkt netpkt.Packet, inPort uint16, outPorts []uint16, frameLen int) {
	delay := s.LookupCost()
	for _, pn := range outPorts {
		switch pn {
		case openflow.PortFlood, openflow.PortAll:
			for no, p := range s.ports {
				if no == inPort || p.noFlood {
					continue
				}
				s.deliver(p, pkt, frameLen, delay)
			}
		case openflow.PortController:
			cp := pkt
			s.eng.Schedule(delay, func() {
				s.sendToController(openflow.PacketIn{
					BufferID: openflow.NoBuffer,
					TotalLen: uint16(frameLen),
					InPort:   inPort,
					Reason:   openflow.ReasonAction,
					Data:     cp.Marshal(),
				})
			})
		case openflow.PortInPort:
			if p, ok := s.ports[inPort]; ok {
				s.deliver(p, pkt, frameLen, delay)
			}
		default:
			if p, ok := s.ports[pn]; ok {
				s.deliver(p, pkt, frameLen, delay)
			}
		}
	}
}

func (s *Switch) deliver(p *port, pkt netpkt.Packet, frameLen int, extraDelay time.Duration) {
	s.eng.Schedule(extraDelay, func() {
		p.down.Send(frameLen, func() {
			p.peer.DeliverFromSwitch(pkt)
		})
	})
}

// estimateFrameLen sizes a packet on the wire without materialising it.
func estimateFrameLen(p *netpkt.Packet) int {
	if n := p.WireLen(); n >= 60 {
		return n
	}
	return 60 // minimum Ethernet frame
}
