// Package dpcache implements FloodGuard's data plane cache (paper
// §IV.C.2): a device between the data and control planes that temporarily
// absorbs migrated table-miss packets during a saturation attack.
//
// It has the paper's three components:
//
//   - packet classifier: table-miss packets are classified by protocol
//     into four FIFO buffer queues (TCP, UDP, ICMP, Default);
//   - packet buffer queues: bounded FIFOs that drop the earliest packet
//     when full, so one protocol's flood cannot starve the others;
//   - packet_in generator: a round-robin scheduler drains the queues at a
//     rate limit dictated by the migration agent, decoding the original
//     INPORT from the TOS tag and handing each packet to the agent for
//     transparent re-injection.
//
// The §IV.E design option for TCAM-limited switches is supported: the
// analyzer may install proactive rules *into the cache*; packets matching
// them are served from a priority queue ahead of the round-robin.
package dpcache

import (
	"time"

	"floodguard/internal/flowtable"
	"floodguard/internal/journal"
	"floodguard/internal/netpkt"
	"floodguard/internal/netsim"
	"floodguard/internal/openflow"
	"floodguard/internal/telemetry"
)

// EncodeInPortTOS packs an ingress port number into the TOS/DSCP bits a
// migration rule writes (6 usable bits; the low two are ECN).
func EncodeInPortTOS(port uint16) uint8 { return uint8(port&0x3f) << 2 }

// DecodeInPortTOS recovers the ingress port from a tagged TOS byte.
func DecodeInPortTOS(tos uint8) uint16 { return uint16(tos >> 2) }

// MaxTaggablePort is the largest ingress port representable in the tag.
const MaxTaggablePort = 63

// Attribution hints. A Hinter classifies each migrated packet as likely
// benign or likely attack traffic; the cache uses the verdict to split
// its buffer queues so benign collateral reaches the controller first.
const (
	// HintNone marks traffic with no attribution verdict (no hinter
	// installed). Treated as benign for scheduling.
	HintNone uint8 = 0
	// HintBenign marks traffic attribution considers collateral: a
	// non-blamed ingress port and a source that is not a heavy hitter.
	HintBenign uint8 = 1
	// HintSuspect marks traffic attribution blames: a suspect ingress
	// port or a heavy-hitter source.
	HintSuspect uint8 = 2
)

// Hinter classifies a migrated packet. Implemented by
// attrib.Attributor; called on the engine/runner goroutine from Ingest.
type Hinter interface {
	Hint(origin uint64, inPort uint16, pkt *netpkt.Packet) uint8
}

// Observer sees every migrated packet accepted by Ingest (attribution's
// view of diverted traffic, which no longer reaches the controller's
// packet_in hook). Called on the engine/runner goroutine.
type Observer func(origin uint64, inPort uint16, pkt *netpkt.Packet)

// QueueClass indexes the four protocol buffer queues.
type QueueClass int

// Queue classes, in round-robin service order.
const (
	QueueTCP QueueClass = iota
	QueueUDP
	QueueICMP
	QueueDefault
	numQueues
)

// String names the class.
func (q QueueClass) String() string {
	switch q {
	case QueueTCP:
		return "tcp"
	case QueueUDP:
		return "udp"
	case QueueICMP:
		return "icmp"
	default:
		return "default"
	}
}

// Classify maps a packet to its buffer queue.
func Classify(p *netpkt.Packet) QueueClass {
	if !p.IsIP() {
		return QueueDefault
	}
	switch p.NwProto {
	case netpkt.ProtoTCP:
		return QueueTCP
	case netpkt.ProtoUDP:
		return QueueUDP
	case netpkt.ProtoICMP:
		return QueueICMP
	default:
		return QueueDefault
	}
}

type entry struct {
	origin  uint64 // datapath id the packet was migrated from
	pkt     netpkt.Packet
	inPort  uint16
	hint    uint8 // attribution verdict at ingest time
	arrived time.Time
}

// fifo is a bounded queue that drops the earliest entry on overflow
// (the paper's "tail drop scheme ... the earliest coming packet inside
// the packet buffer queue will be dropped"). The queue itself is owned
// by the engine goroutine; depth and dropped are atomics so a metrics
// scrape can read them from any thread.
//
// The ring starts empty and doubles on demand up to capacity: a cache
// has nine of these, and most of them — on most testbeds all of them —
// never hold more than a handful of packets.
type fifo struct {
	buf      []entry
	capacity int
	head     int
	n        int
	dropped  telemetry.Counter
	depth    telemetry.Gauge // mirrors n
}

func newFIFO(capacity int) *fifo { return &fifo{capacity: capacity} }

// grow doubles the ring (unwrapping it to start at index 0) and reports
// false once it is at capacity.
func (f *fifo) grow() bool {
	if len(f.buf) >= f.capacity {
		return false
	}
	buf := make([]entry, min(max(2*len(f.buf), 16), f.capacity))
	k := copy(buf, f.buf[f.head:])
	copy(buf[k:], f.buf[:f.head])
	f.buf, f.head = buf, 0
	return true
}

// slot enqueues one entry at the tail and returns its slot for the
// caller to fill, every field: on a full queue at capacity that is the
// oldest entry's slot, overwritten in place (drop-oldest).
func (f *fifo) slot() *entry {
	if f.n == len(f.buf) && !f.grow() {
		e := &f.buf[f.head]
		f.head = (f.head + 1) % len(f.buf)
		f.dropped.Inc()
		return e
	}
	f.n++
	f.depth.Inc()
	return &f.buf[(f.head+f.n-1)%len(f.buf)]
}

// pop dequeues the oldest entry and returns its slot (nil when empty).
// The slot is free again: it stays valid only until the next slot on
// this queue.
func (f *fifo) pop() *entry {
	if f.n == 0 {
		return nil
	}
	e := &f.buf[f.head]
	f.head = (f.head + 1) % len(f.buf)
	f.n--
	f.depth.Dec()
	return e
}

func (f *fifo) len() int { return f.n }

// Sink receives the scheduled packets: FloodGuard's migration agent,
// which re-raises them as packet_in events under the original datapath
// (identified by origin, the datapath id).
type Sink interface {
	CacheEmit(origin uint64, origInPort uint16, pkt netpkt.Packet, queued time.Duration)
}

// Config parameterises a cache instance.
type Config struct {
	// QueueCapacity bounds each protocol queue (packets).
	QueueCapacity int
	// InitialRatePPS is the packet_in generation rate before the agent
	// adjusts it.
	InitialRatePPS float64
	// ProcessingDelay models the cache's per-packet handling cost.
	ProcessingDelay time.Duration
	// SingleQueue collapses the four protocol queues into one FIFO —
	// the ablation baseline for the paper's round-robin design ("the
	// effect ... is the same as just using one queue" only when the
	// attacker spreads across protocols; a single-protocol flood starves
	// the others without the split).
	SingleQueue bool
	// BenignWeight is the weighted-round-robin share of likely-benign
	// deliveries over likely-suspect ones when an attribution Hinter has
	// split the queues: the scheduler serves up to BenignWeight benign
	// packets per suspect packet while both sides have backlog (<= 0
	// picks DefaultBenignWeight). Without a hinter everything lands in
	// the benign queues and the schedule is the plain round-robin.
	BenignWeight int
}

// DefaultBenignWeight is the benign:suspect replay service ratio when a
// hinter is installed and Config.BenignWeight is unset.
const DefaultBenignWeight = 4

func (c *Config) normalize() {
	if c.BenignWeight <= 0 {
		c.BenignWeight = DefaultBenignWeight
	}
}

// DefaultConfig mirrors the prototype's dimensions.
func DefaultConfig() Config {
	return Config{
		QueueCapacity:   4096,
		InitialRatePPS:  50,
		ProcessingDelay: 100 * time.Microsecond,
	}
}

// Stats is a cache health snapshot.
type Stats struct {
	Enqueued uint64
	Emitted  uint64
	Dropped  uint64
	Backlog  int
	// PerQueue is the combined (benign + suspect) backlog per protocol
	// class.
	PerQueue [4]int
	// PriorityServed counts packets served from the cache-resident rule
	// fast path (§IV.E option).
	PriorityServed uint64
	// MaxBacklog is the backlog high-watermark since construction: the
	// most packets ever resident across all queues at once.
	MaxBacklog int
	// SuspectBacklog is the portion of Backlog sitting in the suspect
	// queues; SuspectDropped / BenignDropped split Dropped by the
	// attribution verdict at ingest. BenignDropped is the collateral-
	// damage counter: likely-benign packets the cache shed.
	SuspectBacklog int
	SuspectDropped uint64
	BenignDropped  uint64
	// BenignServed / SuspectServed split deliveries by verdict.
	BenignServed  uint64
	SuspectServed uint64
}

// Cache is one data plane cache instance. It attaches to a switch port
// as a PortPeer and emits scheduled packets to its Sink.
type Cache struct {
	eng  *netsim.Engine
	cfg  Config
	sink Sink

	// queues holds likely-benign traffic (and, without a hinter, all of
	// it); suspects holds hint-classified attack traffic. The scheduler
	// serves benign over suspect at cfg.BenignWeight : 1.
	queues   [numQueues]*fifo
	suspects [numQueues]*fifo
	priority *fifo
	next     QueueClass // benign round-robin cursor
	susNext  QueueClass // suspect round-robin cursor
	credit   int        // remaining benign services before a suspect one

	// hinter, when set, classifies each ingested packet benign/suspect;
	// observer, when set, sees every ingested packet (attribution's view
	// of migrated traffic).
	hinter   Hinter
	observer Observer

	// rules, when set, is the §IV.E cache-resident proactive rule table.
	rules *flowtable.Table

	// jrec, when set, records verdict flips and backlog watermarks into
	// the decision journal. lastHint remembers each (origin, inPort)'s
	// previous hint so only class *changes* produce events; wmNext is the
	// next backlog band that emits a watermark (doubling — power-of-two
	// sampling keeps a flood from journaling every enqueue).
	jrec     *journal.Recorder
	lastHint map[uint64]uint8
	wmNext   int64

	rate   float64
	ticker *netsim.Ticker

	// Counters are atomic so Stats() and a registry scrape are safe from
	// any goroutine.
	enqueued telemetry.Counter
	emitted  telemetry.Counter
	prioSrvd telemetry.Counter
	// maxBacklog is the backlog high-watermark since construction — the
	// soak harness's memory-ceiling proxy for the queue tier.
	maxBacklog telemetry.Gauge
	ratePPS    telemetry.FloatGauge // mirrors rate for scrape goroutines

	// Attribution-split accounting: served by verdict class.
	benignSrvd  telemetry.Counter
	suspectSrvd telemetry.Counter

	// trace, when set, feeds cache residence time into the pipeline
	// cache_wait histogram (nil-safe).
	trace *telemetry.Tracer

	// scratch stages the packet being ingested so pointers handed to the
	// observer/hinter interfaces alias cache-owned memory instead of
	// forcing the argument to escape — keeps Ingest allocation-free. Safe
	// because the cache is single-goroutine (engine/runner contract).
	scratch netpkt.Packet
}

// New creates a cache on the engine; Start arms the scheduler.
func New(eng *netsim.Engine, cfg Config, sink Sink) *Cache {
	cfg.normalize()
	c := &Cache{eng: eng, cfg: cfg, sink: sink, rate: cfg.InitialRatePPS}
	c.ratePPS.Set(cfg.InitialRatePPS)
	for i := range c.queues {
		c.queues[i] = newFIFO(cfg.QueueCapacity)
		c.suspects[i] = newFIFO(cfg.QueueCapacity)
	}
	c.priority = newFIFO(cfg.QueueCapacity)
	c.credit = c.cfg.BenignWeight
	return c
}

// SetJournal attaches a decision-journal recorder; ingest then records
// hint verdict flips and backlog high-watermark bands. Call on the
// engine/runner goroutine (the recorder is single-producer, and the
// cache runs on one goroutine).
func (c *Cache) SetJournal(rec *journal.Recorder) {
	c.jrec = rec
	if rec != nil && c.lastHint == nil {
		c.lastHint = make(map[uint64]uint8, 64)
		c.wmNext = 64
	}
}

// SetHinter installs the attribution classifier splitting ingest into
// benign/suspect queues (nil disables the split; everything then lands
// in the benign queues and scheduling is plain round-robin). Call on
// the engine/runner goroutine.
func (c *Cache) SetHinter(h Hinter) { c.hinter = h }

// SetObserver installs the ingest observer (nil disables). Call on the
// engine/runner goroutine.
func (c *Cache) SetObserver(o Observer) { c.observer = o }

// Start arms the round-robin scheduler at the current rate.
func (c *Cache) Start() { c.arm() }

// Stop disarms the scheduler.
func (c *Cache) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
		c.ticker = nil
	}
}

// SetRate adjusts the packet_in generation rate (packets/second); the
// migration agent calls this as controller headroom changes. Zero pauses
// the generator.
func (c *Cache) SetRate(pps float64) {
	if pps == c.rate && c.ticker != nil {
		return
	}
	c.rate = pps
	c.ratePPS.Set(pps)
	c.arm()
}

// Rate returns the current generation rate.
func (c *Cache) Rate() float64 { return c.rate }

func (c *Cache) arm() {
	if c.ticker != nil {
		c.ticker.Stop()
		c.ticker = nil
	}
	if c.rate <= 0 {
		return
	}
	interval := time.Duration(float64(time.Second) / c.rate)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	c.ticker = c.eng.NewTicker(interval, c.tick)
}

// UseRuleTable enables the §IV.E design option: packets matching a rule
// in tbl are queued with priority. Pass nil to disable.
func (c *Cache) UseRuleTable(tbl *flowtable.Table) { c.rules = tbl }

// RuleTable returns the cache-resident rule table (may be nil).
func (c *Cache) RuleTable() *flowtable.Table { return c.rules }

// Ingest accepts a migrated table-miss packet from the identified
// datapath, tagged with its original INPORT in the TOS field. It resumes
// a parked replay ticker (see netsim.Ticker): called once every event
// due at now has fired, as the rtc engine does, the replay instants are
// those of a ticker that never parked.
func (c *Cache) Ingest(origin uint64, pkt netpkt.Packet) {
	c.scratch = pkt
	p := &c.scratch
	inPort := DecodeInPortTOS(p.NwTOS)
	p.NwTOS = 0 // strip the tag
	if c.observer != nil {
		c.observer(origin, inPort, p)
	}
	c.enqueued.Inc()
	hint := HintNone
	if c.hinter != nil {
		hint = c.hinter.Hint(origin, inPort, p)
		if c.jrec != nil {
			k := origin<<16 | uint64(inPort)
			if old, ok := c.lastHint[k]; !ok {
				c.lastHint[k] = hint
			} else if old != hint {
				c.jrec.Record(journal.KindVerdictFlip, hint, 0, origin, inPort, float64(old), 0, 0)
				c.lastHint[k] = hint
			}
		}
	}
	e := c.queueFor(p, inPort, hint).slot()
	e.origin, e.pkt, e.inPort, e.hint, e.arrived = origin, *p, inPort, hint, c.eng.Now()
	c.noteBacklog()
	if c.ticker != nil {
		c.ticker.Resume()
	}
}

// noteBacklog advances the backlog high-watermark after an enqueue —
// the cache's RSS proxy for soak memory-ceiling checks. Backlog only
// grows at push sites, so sampling here captures the true peak.
func (c *Cache) noteBacklog() {
	if n := int64(c.Backlog()); n > c.maxBacklog.Value() {
		c.maxBacklog.Set(n)
		if c.jrec != nil && n >= c.wmNext {
			c.jrec.Record(journal.KindWatermark, 0, 0, 0, 0, float64(n), 0, 0)
			c.wmNext = n * 2
		}
	}
}

// queueFor picks the buffer queue a packet belongs to: the priority
// queue when it matches a cache-resident rule, else its protocol class
// (or the single collapsed queue under the ablation), on the suspect
// side when attribution blamed it.
func (c *Cache) queueFor(p *netpkt.Packet, inPort uint16, hint uint8) *fifo {
	if c.rules != nil && c.rules.Peek(p, inPort) != nil {
		return c.priority
	}
	cls := QueueDefault
	if !c.cfg.SingleQueue {
		cls = Classify(p)
	}
	if hint == HintSuspect {
		return c.suspects[cls]
	}
	return c.queues[cls]
}

// Adapter returns a PortPeer view of the cache bound to one origin
// datapath; attach it to that switch's cache port.
func (c *Cache) Adapter(origin uint64) *Adapter { return &Adapter{c: c, origin: origin} }

// Adapter binds a shared cache to one switch.
type Adapter struct {
	c      *Cache
	origin uint64
}

// DeliverFromSwitch implements the switch PortPeer.
func (a *Adapter) DeliverFromSwitch(pkt netpkt.Packet) { a.c.Ingest(a.origin, pkt) }

// tick is one replay slot. A slot that finds every queue empty parks the
// ticker until the next Ingest resumes it on the same grid: the slots it
// skips would have found every queue empty too, and only the first of
// those changes anything (emitOne refills a spent credit), which this
// one already did.
func (c *Cache) tick() {
	if !c.emitOne() {
		c.ticker.Park()
	}
}

// emitOne serves the priority queue first, then one packet from the
// benign/suspect pair under weighted round-robin: up to BenignWeight
// benign deliveries per suspect one while both sides have backlog, with
// a round-robin cursor across the protocol classes inside each side.
// Whichever side is empty yields its slot to the other, so the link is
// never idled by the split. It reports whether it delivered a packet.
func (c *Cache) emitOne() bool {
	e := c.priority.pop()
	if e != nil {
		c.prioSrvd.Inc()
	} else if c.credit > 0 {
		if e = c.popRR(&c.queues, &c.next); e != nil {
			c.credit--
		} else {
			e = c.popRR(&c.suspects, &c.susNext)
		}
	} else {
		c.credit = c.cfg.BenignWeight
		if e = c.popRR(&c.suspects, &c.susNext); e == nil {
			e = c.popRR(&c.queues, &c.next)
		}
	}
	if e == nil {
		return false
	}
	c.deliver(e)
	return true
}

// popRR pops one entry round-robin from a queue set, advancing its
// cursor; nil when every queue in the set is empty.
func (c *Cache) popRR(set *[numQueues]*fifo, cursor *QueueClass) *entry {
	for i := 0; i < int(numQueues); i++ {
		q := set[*cursor]
		*cursor = (*cursor + 1) % numQueues
		if e := q.pop(); e != nil {
			return e
		}
	}
	return nil
}

// deliver hands a popped entry to the sink. e is the freed queue slot:
// the sink may Ingest into that very slot, so nothing reads e once the
// sink has been called, and the delayed path copies it before
// scheduling — an Ingest before the scheduled emit fires can reuse the
// slot too.
func (c *Cache) deliver(e *entry) {
	c.emitted.Inc()
	if e.hint == HintSuspect {
		c.suspectSrvd.Inc()
	} else {
		c.benignSrvd.Inc()
	}
	queued := c.eng.Now().Sub(e.arrived)
	c.trace.Observe(telemetry.StageCacheWait, queued)
	if c.cfg.ProcessingDelay <= 0 {
		// No modelled handling cost: hand the packet to the sink inline
		// instead of scheduling a zero-delay event — the replay path then
		// allocates nothing per packet.
		c.sink.CacheEmit(e.origin, e.inPort, e.pkt, queued)
		return
	}
	held := *e
	c.eng.Schedule(c.cfg.ProcessingDelay, func() {
		c.sink.CacheEmit(held.origin, held.inPort, held.pkt, queued+c.cfg.ProcessingDelay)
	})
}

// Backlog returns the total queued packet count.
func (c *Cache) Backlog() int {
	n := c.priority.len()
	for i := range c.queues {
		n += c.queues[i].len() + c.suspects[i].len()
	}
	return n
}

// Drained reports whether every queue is empty — the Finish→Idle
// transition condition of the FloodGuard state machine.
func (c *Cache) Drained() bool { return c.Backlog() == 0 }

// Stats returns a snapshot. It reads only atomics, so it is safe from
// any goroutine (per-field reads are individually atomic; the snapshot
// as a whole is best-effort consistent while the engine runs).
func (c *Cache) Stats() Stats {
	s := Stats{
		Enqueued:       c.enqueued.Value(),
		Emitted:        c.emitted.Value(),
		PriorityServed: c.prioSrvd.Value(),
		BenignServed:   c.benignSrvd.Value(),
		SuspectServed:  c.suspectSrvd.Value(),
		MaxBacklog:     int(c.maxBacklog.Value()),
	}
	for i, q := range c.queues {
		s.PerQueue[i] = int(q.depth.Value())
		s.Backlog += int(q.depth.Value())
		s.BenignDropped += q.dropped.Value()
	}
	for i, q := range c.suspects {
		s.PerQueue[i] += int(q.depth.Value())
		s.SuspectBacklog += int(q.depth.Value())
		s.Backlog += int(q.depth.Value())
		s.SuspectDropped += q.dropped.Value()
	}
	s.Backlog += int(c.priority.depth.Value())
	s.BenignDropped += c.priority.dropped.Value()
	s.Dropped = s.BenignDropped + s.SuspectDropped
	return s
}

// SetTracer wires the pipeline tracer; delivered packets record their
// cache residence time into the cache_wait stage histogram. A nil
// tracer disables tracing.
func (c *Cache) SetTracer(t *telemetry.Tracer) { c.trace = t }

// Register attaches the cache's counters and per-protocol-class queue
// depth gauges to reg under the given metric name prefix (e.g.
// "fg_cache").
func (c *Cache) Register(reg *telemetry.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.RegisterCounter(prefix+"_enqueued_total", "Migrated packets accepted into the cache.", &c.enqueued)
	reg.RegisterCounter(prefix+"_emitted_total", "Packets delivered to the migration agent.", &c.emitted)
	reg.RegisterCounter(prefix+"_priority_served_total", "Packets served from the cache-resident rule fast path.", &c.prioSrvd)
	reg.RegisterGauge(prefix+"_backlog_high_watermark", "Most packets ever resident across all queues at once.", &c.maxBacklog)
	reg.RegisterCounter(prefix+"_benign_served_total", "Deliveries of likely-benign (or unclassified) packets.", &c.benignSrvd)
	reg.RegisterCounter(prefix+"_suspect_served_total", "Deliveries of attribution-blamed packets.", &c.suspectSrvd)
	for i, q := range c.queues {
		cls := QueueClass(i).String()
		reg.RegisterGauge(prefix+`_queue_depth{class="`+cls+`"}`, "Current protocol queue depth.", &q.depth)
		reg.RegisterCounter(prefix+`_dropped_total{class="`+cls+`"}`, "Packets dropped by queue overflow.", &q.dropped)
	}
	for i, q := range c.suspects {
		cls := QueueClass(i).String()
		reg.RegisterGauge(prefix+`_queue_depth{class="`+cls+`",verdict="suspect"}`, "Current suspect-side protocol queue depth.", &q.depth)
		reg.RegisterCounter(prefix+`_dropped_total{class="`+cls+`",verdict="suspect"}`, "Suspect packets dropped by queue overflow.", &q.dropped)
	}
	reg.RegisterGauge(prefix+`_queue_depth{class="priority"}`, "Current protocol queue depth.", &c.priority.depth)
	reg.RegisterCounter(prefix+`_dropped_total{class="priority"}`, "Packets dropped by queue overflow.", &c.priority.dropped)
	reg.GaugeFunc(prefix+"_collateral_dropped_total", "Likely-benign packets shed by queue overflow (collateral damage).", func() float64 {
		var n uint64
		for i := range c.queues {
			n += c.queues[i].dropped.Value()
		}
		return float64(n + c.priority.dropped.Value())
	})
	reg.GaugeFunc(prefix+"_backlog", "Total queued packets across all queues.", func() float64 {
		n := c.priority.depth.Value()
		for i := range c.queues {
			n += c.queues[i].depth.Value() + c.suspects[i].depth.Value()
		}
		return float64(n)
	})
	reg.GaugeFunc(prefix+"_rate_pps", "Current packet_in generation rate.", func() float64 {
		return c.ratePPS.Value()
	})
}

// MigrationRule builds the wildcard rule the agent installs to divert one
// ingress port's table-miss traffic to the cache (paper §IV.C.1, Figure
// 6): lowest priority, match in_port, set the TOS tag, output to the
// cache port.
func MigrationRule(port, cachePort uint16) openflow.FlowMod {
	m := openflow.MatchAll()
	m.Wildcards &^= openflow.WildInPort
	m.InPort = port
	return openflow.FlowMod{
		Match:    m,
		Command:  openflow.FlowAdd,
		Priority: 1, // below every application and proactive rule
		BufferID: openflow.NoBuffer,
		OutPort:  openflow.PortNone,
		Actions: []openflow.Action{
			openflow.ActionSetNwTOS{TOS: EncodeInPortTOS(port)},
			openflow.Output(cachePort),
		},
	}
}
