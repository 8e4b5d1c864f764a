// Package rtc is the run-to-completion packet engine: the million-pps
// reshaping of the FloodGuard hot path. Instead of hopping every packet
// across goroutine-per-layer channels (ingress → classifier → flow
// table → attribution → data plane cache), the engine partitions ports
// across N shards, and each shard carries its packets end-to-end in a
// single goroutine: ingress classification, flow-table lookup in the
// shard's own table partition, attribution observation into shard-local
// sketches, and — for table misses — TOS tagging plus a lock-free
// ring-buffer handoff to the data plane cache stage.
//
// The per-packet shard path takes zero locks and performs zero
// allocations, hit or miss: the only shared-memory traffic is the
// shard's own statistic counters.
// Shared state is reconciled at window boundaries only — the shard
// folds its attribution deltas (count-min cells, heavy-hitter
// candidates, per-port sample counts) into the shared Attributor via
// the sketch merge path, exactly like the sweep shard-invariance
// contract in internal/experiments, and hands its TCP handshake deltas
// over whole for the next Roll to fold in.
//
// The cache stage owns a dpcache.Cache on a discrete-event
// netsim.Engine. Against the wall clock it is its own goroutine: it
// pumps that engine in real time, so the paper's rate-limited replay
// ticker fires while ingest arrives over the per-shard SPSC rings. In
// manual (virtual-time) mode it has no goroutine at all: the harness is
// the rings' single consumer and drives the stage itself through
// DrainCache and Advance, so no packet pays a hand-off to a third
// goroutine and replay runs on the harness's critical path.
package rtc

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"floodguard/internal/attrib"
	"floodguard/internal/dpcache"
	"floodguard/internal/flowtable"
	"floodguard/internal/journal"
	"floodguard/internal/netpkt"
	"floodguard/internal/netsim"
	"floodguard/internal/spsc"
	"floodguard/internal/tcpguard"
	"floodguard/internal/telemetry"
)

// Item is one packet entering the engine. IngressNanos, when nonzero,
// is the producer's wall-clock stamp (UnixNano) for latency sampling;
// producers stamp one packet in DefaultLatencySample. An Item with
// Flush set carries no packet: it makes the owning shard fold its
// attribution deltas into the shared Attributor the moment it is
// popped, giving a manual-mode harness an in-band, FIFO-ordered window
// barrier (every packet pushed before the sentinel is merged first).
type Item struct {
	Pkt          netpkt.Packet
	InPort       uint16
	IngressNanos int64
	Flush        bool
}

// CacheItem is one table-miss packet handed from a shard to the cache
// stage, already TOS-tagged with its ingress port.
type CacheItem struct {
	Origin uint64
	Pkt    netpkt.Packet
}

// Config parameterises the engine. Zero values pick the defaults noted
// per field.
type Config struct {
	// Shards is the run-to-completion shard count (<= 0 picks
	// GOMAXPROCS). Port p belongs to shard p % Shards.
	Shards int
	// CtrlRingCapacity sizes each shard's in-band control ring, the
	// flow_mod path into a running engine (default 256).
	CtrlRingCapacity int
	// ApplyTimeout bounds Apply/ApplyAsync: how long an enqueue may wait
	// on a full control ring and how long Apply waits for shard
	// acknowledgement (default 2s).
	ApplyTimeout time.Duration
	// TableCapacity bounds the flow table in aggregate (0 = unbounded).
	TableCapacity int
	// RingCapacity sizes each shard's ingress ring (default 2048).
	RingCapacity int
	// CacheRingCapacity sizes each shard→cache handoff ring (default
	// 4096).
	CacheRingCapacity int
	// QueueCapacity bounds each dpcache protocol queue (default 4096).
	QueueCapacity int
	// ReplayPPS is the data plane cache's packet_in generation rate
	// (default 10000).
	ReplayPPS float64
	// Window is the attribution window and the shard merge period
	// (default 50ms).
	Window time.Duration
	// Attrib parameterises the shared attribution engine.
	Attrib attrib.Config
	// Manual switches the engine to harness-driven virtual time. Start
	// launches only the shards; the cache stage runs on the harness's
	// goroutine, in DrainCache (ingest the shard handoff rings in shard
	// order) and Advance (pump the discrete-event engine to a virtual
	// time), never against the wall clock. The attribution window never
	// rolls on its own (the harness calls Attributor().Roll at its own
	// barriers), and shards flush their attribution deltas only on Flush
	// sentinel items. Two manual runs fed the same item sequence produce
	// identical counters — the soak harness's determinism contract.
	Manual bool
	// ReplayObserver, when set, sees every packet the cache stage replays
	// to the controller path, with its virtual-time queue residency.
	// Called on the cache-stage goroutine (in manual mode, Advance's
	// caller).
	ReplayObserver func(origin uint64, origInPort uint16, pkt netpkt.Packet, queued time.Duration)
	// TCPGuard, when set, enables the SYN-proxy tier on the shard miss
	// path: table-miss TCP segments run the stateless-cookie handshake
	// before the cache handoff, so SYN floods are answered (and invalid
	// ACKs consumed) without ever occupying cache queue space or reaching
	// the controller. The Shards field is overridden with the engine's
	// shard count so guard state partitions exactly like port ownership;
	// handshake verdicts feed each shard's attribution observer.
	TCPGuard *tcpguard.Config
	// Journal, when set, receives decision events. It must be built with
	// journal.ForEngine(Shards): each shard goroutine takes its own
	// recorder slot (flush barriers, sampled handoff-ring drops), the
	// cache stage takes the cache slot (verdict flips, watermarks), and
	// attribution takes its slot (suspect/blame/heal evidence). The cache
	// stage doubles as the journal's drain consumer while the engine
	// runs; after Stop the harness may Drain/Events it freely.
	Journal *journal.Journal
}

// DefaultLatencySample is the conventional 1-in-N latency stamp rate.
// The engine accepts whatever stamps producers set.
const DefaultLatencySample = 8

const (
	// datapathID identifies the engine's datapath in attribution, cache
	// and journal accounting.
	datapathID uint64 = 1
	// shardBatch is the shard's ingress pop-batch size.
	shardBatch = 256
)

func (c *Config) normalize() {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.RingCapacity <= 0 {
		c.RingCapacity = 2048
	}
	if c.CacheRingCapacity <= 0 {
		c.CacheRingCapacity = 4096
	}
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 4096
	}
	if c.ReplayPPS == 0 {
		c.ReplayPPS = 10000
	}
	if c.Window <= 0 {
		c.Window = 50 * time.Millisecond
	}
	if c.CtrlRingCapacity <= 0 {
		c.CtrlRingCapacity = 256
	}
	if c.ApplyTimeout <= 0 {
		c.ApplyTimeout = 2 * time.Second
	}
}

// Shard is one run-to-completion worker: it owns its ingress ring, its
// table partition, its attribution observer, and its statistics. All
// per-packet state is goroutine-local; the counters are atomics only so
// snapshots can read them live.
type Shard struct {
	id  int
	eng *Engine

	in      *spsc.Ring[Item]
	toCache *spsc.Ring[CacheItem]

	// part is the shard-owned flow table partition: lookups and in-band
	// rule application touch only it — zero locks on the packet path.
	part *flowtable.Table
	// ctrl is the in-band flow_mod ring into this shard; ctrlMu
	// serializes control-plane producers.
	ctrl   *spsc.Ring[ctrlEvent]
	ctrlMu sync.Mutex

	obs *attrib.ShardObserver

	// Every packet bumps exactly one of these two; processed is their sum,
	// derived on read, so no reader can catch it between two adds.
	forwarded  atomic.Uint64
	misses     atomic.Uint64
	cacheDrops atomic.Uint64
	flushes    atomic.Uint64
	applied    atomic.Uint64
	applyErrs  atomic.Uint64
	synAcked   atomic.Uint64
	guardDrops atomic.Uint64

	// jrec is this shard's journal recorder (nil when no journal is
	// attached; Record on nil is a no-op).
	jrec *journal.Recorder

	lat latHist
}

// Ring returns the shard's ingress ring. Exactly one producer goroutine
// may push to it (the SPSC contract).
func (s *Shard) Ring() *spsc.Ring[Item] { return s.in }

// LookupStats is a shard's table-lookup tally. The field names date from
// the microflow cache that used to front the table and are what the
// benchmark harness reads (bench/ is frozen while a PR claims a gain):
// Hits counts lookups that found a rule, Misses table misses, and Resets
// — whole-cache resets — is always zero now.
type LookupStats struct {
	Hits, Misses, Resets uint64
}

// ShardStats is one shard's counter snapshot. Applied and ApplyErrs
// count in-band flow_mods the shard executed.
type ShardStats struct {
	Processed  uint64
	Forwarded  uint64
	Misses     uint64
	CacheDrops uint64
	Flushes    uint64
	Applied    uint64
	ApplyErrs  uint64
	// SynAcked and GuardDropped count table-miss TCP segments the
	// SYN-proxy tier consumed on this shard (cookie SYN-ACK answered /
	// invalid segment dropped). Guard-consumed packets never enter the
	// shard→cache ring: Misses = handed-to-cache + CacheDrops + SynAcked
	// + GuardDropped.
	SynAcked     uint64
	GuardDropped uint64
	Micro        LookupStats
}

// Snapshot is an engine-wide state snapshot: per-shard counters, their
// sums, merged latency quantiles, and the cache stage's view.
type Snapshot struct {
	Shards []ShardStats

	Processed    uint64
	Forwarded    uint64
	Misses       uint64
	CacheDrops   uint64
	SynAcked     uint64
	GuardDropped uint64

	P50, P99 time.Duration

	Cache    dpcache.Stats
	Replayed uint64
}

// Engine is the sharded run-to-completion pipeline.
type Engine struct {
	cfg    Config
	parts  *flowtable.Sharded // one partition per shard
	attr   *attrib.Attributor
	guard  *tcpguard.Guard
	shards []*Shard

	sim      *netsim.Engine
	cache    *dpcache.Cache
	replayed atomic.Uint64
	// drainBuf is DrainCache's ring pop batch (manual mode).
	drainBuf []CacheItem

	wgShards sync.WaitGroup
	wgCache  sync.WaitGroup
	started  atomic.Bool
	stopped  atomic.Bool
}

// replaySink counts cache deliveries — the packets FloodGuard would
// re-raise to the controller as packet_ins — and forwards them to the
// optional replay observer.
type replaySink struct {
	n   *atomic.Uint64
	obs func(origin uint64, origInPort uint16, pkt netpkt.Packet, queued time.Duration)
}

func (s replaySink) CacheEmit(origin uint64, origInPort uint16, pkt netpkt.Packet, queued time.Duration) {
	s.n.Add(1)
	if s.obs != nil {
		s.obs(origin, origInPort, pkt, queued)
	}
}

// New builds an engine; Start spins up its goroutines.
func New(cfg Config) *Engine {
	cfg.normalize()
	e := &Engine{
		cfg:      cfg,
		attr:     attrib.New(cfg.Attrib),
		sim:      netsim.NewEngine(),
		parts:    flowtable.NewSharded(cfg.Shards, cfg.TableCapacity),
		drainBuf: make([]CacheItem, 256),
	}
	e.cache = dpcache.New(e.sim, dpcache.Config{
		QueueCapacity:  cfg.QueueCapacity,
		InitialRatePPS: cfg.ReplayPPS,
		// Zero processing delay: replay cost is real compute here, not a
		// modelled constant, and the zero-delay path is allocation-free.
		ProcessingDelay: 0,
	}, replaySink{n: &e.replayed, obs: cfg.ReplayObserver})
	e.cache.SetHinter(e.attr)
	e.cache.SetJournal(cfg.Journal.CacheRec())
	e.attr.SetJournal(cfg.Journal.AttribRec())
	e.shards = make([]*Shard, cfg.Shards)
	for i := range e.shards {
		s := &Shard{
			id:      i,
			eng:     e,
			in:      spsc.New[Item](cfg.RingCapacity),
			toCache: spsc.New[CacheItem](cfg.CacheRingCapacity),
			part:    e.parts.Partition(i),
			ctrl:    spsc.New[ctrlEvent](cfg.CtrlRingCapacity),
			obs:     e.attr.NewShardObserver(),
			jrec:    cfg.Journal.ShardRec(i),
		}
		e.shards[i] = s
	}
	if cfg.TCPGuard != nil {
		// The guard partitions its connection tables exactly like port
		// ownership: guard shard i is touched only by engine shard i.
		gcfg := *cfg.TCPGuard
		gcfg.Shards = cfg.Shards
		e.guard = tcpguard.New(gcfg)
		for i, s := range e.shards {
			e.guard.SetShardObserver(i, s.obs)
		}
	}
	return e
}

// Journal returns the attached decision journal (nil when disabled).
func (e *Engine) Journal() *journal.Journal { return e.cfg.Journal }

// Shards returns the shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// ShardFor maps an ingress port to its owning shard.
func (e *Engine) ShardFor(port uint16) int { return int(port) % len(e.shards) }

// Shard returns shard i.
func (e *Engine) Shard(i int) *Shard { return e.shards[i] }

// TableRules returns the installed rule count summed over partitions
// (broadcast rules count once per partition). Safe from any goroutine —
// it reads mutation-point mirrors.
func (e *Engine) TableRules() int { return e.parts.RuleCount() }

// TableStats returns the flow table counter snapshot, summed over
// partitions (atomics only — safe live).
func (e *Engine) TableStats() flowtable.Stats { return e.parts.Stats() }

// Attributor exposes the shared attribution engine (verdict reads).
func (e *Engine) Attributor() *attrib.Attributor { return e.attr }

// TCPGuard exposes the SYN-proxy tier (nil when disabled). Stats and
// Window are safe live; per-connection introspection needs a shard
// barrier.
func (e *Engine) TCPGuard() *tcpguard.Guard { return e.guard }

// GuardCounters sums the shard-level SYN-proxy accounting: cookie
// SYN-ACKs answered and invalid segments dropped on the miss path.
func (e *Engine) GuardCounters() (synAcked, guardDropped uint64) {
	for _, s := range e.shards {
		synAcked += s.synAcked.Load()
		guardDropped += s.guardDrops.Load()
	}
	return
}

// Cache exposes the data plane cache. It is owned by the cache stage:
// in manual mode that is the harness, which may mutate it (SetRate,
// rule table) between DrainCache and Advance calls; against the wall
// clock it is the cache goroutine, so mutate it only after Stop.
func (e *Engine) Cache() *dpcache.Cache { return e.cache }

// Inject pushes one packet to its owning shard's ring, returning false
// when the ring is full. Single external producer only — concurrent
// injectors must partition ports so no two push to the same shard.
func (e *Engine) Inject(pkt netpkt.Packet, inPort uint16) bool {
	return e.shards[e.ShardFor(inPort)].in.Push(Item{Pkt: pkt, InPort: inPort})
}

// InjectItem pushes a pre-stamped item (latency sampling) to its owning
// shard's ring. Same single-producer contract as Inject.
func (e *Engine) InjectItem(it Item) bool {
	return e.shards[e.ShardFor(it.InPort)].in.Push(it)
}

// Start launches the shard goroutines and, outside manual mode, the
// cache-stage goroutine.
func (e *Engine) Start() {
	if !e.started.CompareAndSwap(false, true) {
		return
	}
	e.cache.Start()
	for _, s := range e.shards {
		e.wgShards.Add(1)
		go s.run()
	}
	if !e.cfg.Manual {
		e.wgCache.Add(1)
		go e.cacheLoop()
	}
}

// Stop closes the ingress rings, waits for the shards to drain (each
// applies any queued control events before exiting, so no Apply caller
// is left waiting) and flush their final attribution deltas, then
// waits for the cache stage to drain the handoff rings — in manual mode
// Stop drains them itself, on the caller's goroutine. The engine cannot
// be restarted; Apply on a stopped engine applies inline.
func (e *Engine) Stop() {
	if !e.started.Load() || e.stopped.Load() {
		return
	}
	for _, s := range e.shards {
		s.in.Close()
	}
	e.wgShards.Wait()
	if e.cfg.Manual {
		e.DrainCache()
		e.cache.Stop()
	}
	e.wgCache.Wait()
	e.stopped.Store(true)
	if !e.cfg.Manual {
		e.attr.Roll(e.cfg.Window) // close the last detection window
	}
}

// DrainCache ingests everything the shards have handed off so far into
// the cache, shard by shard in shard order, and drains the journal —
// the cache stage's work, on the caller's goroutine. Manual mode only:
// the caller is the handoff rings' single consumer, and must call it
// often enough that no ring fills (a full ring drops the miss). It
// pumps no virtual time, so replay waits for Advance.
func (e *Engine) DrainCache() {
	for _, s := range e.shards {
		for {
			n := s.toCache.PopBatch(e.drainBuf)
			if n == 0 {
				break
			}
			for i := range e.drainBuf[:n] {
				e.cache.Ingest(e.drainBuf[i].Origin, e.drainBuf[i].Pkt)
			}
		}
	}
	e.cfg.Journal.Drain()
}

// Advance drains the handoff rings, pumps the discrete-event engine —
// replay ticks, scheduled events — to d past the sim epoch, and drains
// the journal, all on the caller's goroutine. Manual mode only. The
// ingest → pump order is fixed, so the sequence of sim events (and thus
// every replay emission and drop) is a pure function of the item
// sequence and the Advance schedule.
func (e *Engine) Advance(d time.Duration) {
	e.DrainCache()
	e.sim.RunUntil(netsim.Epoch.Add(d))
	e.cfg.Journal.Drain()
}

// Counters returns the engine-wide packet accounting from the shard
// atomics: processed, forwarded, misses, and shard→cache ring drops.
// Safe from any goroutine; reading them after an external quiescence
// barrier (all injected packets observed processed) yields exact
// values with proper happens-before edges.
func (e *Engine) Counters() (processed, forwarded, misses, ringDrops uint64) {
	for _, s := range e.shards {
		forwarded += s.forwarded.Load()
		misses += s.misses.Load()
		ringDrops += s.cacheDrops.Load()
	}
	return forwarded + misses, forwarded, misses, ringDrops
}

// Flushes returns how many attribution flushes shard i has completed.
func (e *Engine) Flushes(i int) uint64 { return e.shards[i].flushes.Load() }

// CacheStats snapshots the data plane cache counters (atomics only —
// safe live from any goroutine).
func (e *Engine) CacheStats() dpcache.Stats { return e.cache.Stats() }

// ReplayedTotal returns how many packets the cache stage delivered to
// the controller path.
func (e *Engine) ReplayedTotal() uint64 { return e.replayed.Load() }

// run is the shard loop: drain any in-band control events, then a
// batched pop from the ingress ring and each packet end-to-end. One
// time.Now per batch serves lookup stamps and the window-boundary
// check. An idle shard parks in Wait; Apply wakes it through the
// ingress ring so queued flow_mods never wait on traffic.
func (s *Shard) run() {
	defer s.eng.wgShards.Done()
	defer s.toCache.Close()
	batch := make([]Item, shardBatch)
	window := s.eng.cfg.Window
	manual := s.eng.cfg.Manual
	nextFlush := time.Now().Add(window)
	for {
		if s.ctrl.Len() > 0 {
			s.drainCtrl(time.Now())
		}
		n := s.in.PopBatch(batch)
		if n == 0 {
			if s.in.Closed() {
				if s.in.Len() > 0 {
					continue // pushed between the pop and the close flag
				}
				// Apply any straggling control events so no Apply caller
				// is left waiting on its ack.
				s.drainCtrl(time.Now())
				s.obs.Flush() // final merge before the ring goes away
				s.flushGuard()
				s.noteFlush()
				return
			}
			s.in.Wait()
			continue
		}
		now := time.Now()
		for i := 0; i < n; i++ {
			if batch[i].Flush {
				// In-band window barrier: converge pending rule mutations
				// (the broadcast guarantee), then merge everything popped
				// so far.
				s.drainCtrl(now)
				s.obs.Flush()
				s.flushGuard()
				s.noteFlush()
				continue
			}
			s.processOne(&batch[i], now)
		}
		if !manual && now.After(nextFlush) {
			s.obs.Flush()
			s.flushGuard()
			s.noteFlush()
			nextFlush = now.Add(window)
		}
	}
}

// processOne carries one packet end-to-end on the caller's goroutine —
// the run-to-completion body. It takes zero locks and allocates nothing,
// hit or miss.
func (s *Shard) processOne(it *Item, now time.Time) {
	p := &it.Pkt
	// Ingress classification runs here even though only the cache uses
	// the class downstream — the run-to-completion contract is that every
	// layer's per-packet work happens on this goroutine.
	_ = dpcache.Classify(p)
	if entry := s.part.Lookup(p, it.InPort, now, p.WireLen()); entry != nil {
		// Forwarded: in a hardware datapath the actions would be executed
		// here; the engine accounts them and moves on.
		s.forwarded.Add(1)
	} else {
		s.misses.Add(1)
		s.obs.Observe(datapathID, it.InPort, p)
		if !s.guardConsumed(p, it.InPort) {
			tagged := *p
			tagged.NwTOS = dpcache.EncodeInPortTOS(it.InPort)
			if !s.toCache.Push(CacheItem{Origin: datapathID, Pkt: tagged}) {
				d := s.cacheDrops.Add(1)
				// Power-of-two sampled: a sustained overload journals
				// O(log drops) events, not one per packet.
				if d&(d-1) == 0 {
					s.jrec.Record(journal.KindRingDrop, 0, 0, datapathID, it.InPort, float64(d), 0, 0)
				}
			}
		}
	}
	if it.IngressNanos != 0 {
		s.lat.observe(now.Sub(time.Unix(0, it.IngressNanos)))
	}
}

// guardConsumed runs the SYN-proxy tier on one table-miss packet,
// still on the shard goroutine (the run-to-completion contract: the
// guard's shard-i connection table is touched only here). It reports
// whether the tier consumed the packet — answered its SYN with a
// cookie SYN-ACK or dropped an invalid segment — in which case the
// packet must not be handed to the cache.
func (s *Shard) guardConsumed(p *netpkt.Packet, inPort uint16) bool {
	g := s.eng.guard
	if g == nil || p.EthType != netpkt.EtherTypeIPv4 || p.NwProto != netpkt.ProtoTCP {
		return false
	}
	switch g.Process(s.id, datapathID, inPort, p) {
	case tcpguard.ActionAnswer:
		n := s.synAcked.Add(1)
		// Power-of-two sampled, like ring drops: a SYN flood journals
		// O(log answered) cookie events.
		if n&(n-1) == 0 {
			s.jrec.Record(journal.KindTCPCookie, 0, 0, datapathID, inPort, float64(n), 0, 0)
		}
		return true
	case tcpguard.ActionDrop:
		s.guardDrops.Add(1)
		return true
	}
	return false
}

// flushGuard sweeps the shard's guard connection table at the window
// barrier (idle/closed eviction). Shard goroutine only.
func (s *Shard) flushGuard() {
	if g := s.eng.guard; g != nil {
		g.FlushShard(s.id)
	}
}

// noteFlush counts a window-barrier merge and journals the shard's
// cumulative counters at the barrier — the per-shard heartbeat a dump
// reader uses to align shard progress with control-plane decisions.
func (s *Shard) noteFlush() {
	s.flushes.Add(1)
	s.jrec.Record(journal.KindShardFlush, 0, 0, datapathID, uint16(s.id),
		float64(s.forwarded.Load()+s.misses.Load()), float64(s.misses.Load()), float64(s.cacheDrops.Load()))
}

// cacheLoop is the wall-clock cache-stage goroutine: it drains every
// shard's handoff ring into the dpcache and pumps the discrete-event
// engine against the wall clock so the replay ticker fires in real time.
// It also rolls the attribution window — verdict computation belongs to
// the control plane, not the packet path.
func (e *Engine) cacheLoop() {
	defer e.wgCache.Done()
	start := time.Now()
	lastRoll := start
	batch := make([]CacheItem, 256)
	drainTick := 0
	for {
		drained := 0
		alive := false
		for _, s := range e.shards {
			n := s.toCache.PopBatch(batch)
			for i := 0; i < n; i++ {
				e.cache.Ingest(batch[i].Origin, batch[i].Pkt)
			}
			drained += n
			if n > 0 || !s.toCache.Closed() || s.toCache.Len() > 0 {
				alive = true
			}
		}
		now := time.Now()
		e.sim.RunUntil(netsim.Epoch.Add(now.Sub(start)))
		if now.Sub(lastRoll) >= e.cfg.Window {
			e.attr.Roll(now.Sub(lastRoll))
			e.cfg.Journal.AdvanceWindow()
			if e.guard != nil {
				e.guard.AdvanceWindow() // cookie window tracks the attrib window
			}
			lastRoll = now
		}
		// Throttled drain: polling every recorder ring touches cache
		// lines the shard producers own, so the consumer visits them at
		// a coarse cadence (decision events are orders of magnitude
		// rarer than packets; the 2048-slot rings have ample slack).
		if drainTick++; drainTick&63 == 0 {
			e.cfg.Journal.Drain()
		}
		if !alive {
			e.cfg.Journal.Drain()
			e.cache.Stop()
			return
		}
		if drained == 0 {
			// Idle: let the replay ticker interval pass without spinning.
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// Snapshot merges the per-shard counters and latency histograms with
// the cache stage's stats. Safe to call live; exact once Stop returned.
func (e *Engine) Snapshot() Snapshot {
	var snap Snapshot
	var merged [latBuckets]uint64
	snap.Shards = make([]ShardStats, len(e.shards))
	for i, s := range e.shards {
		fwd, miss := s.forwarded.Load(), s.misses.Load()
		st := ShardStats{
			Processed:    fwd + miss,
			Forwarded:    fwd,
			Misses:       miss,
			CacheDrops:   s.cacheDrops.Load(),
			Flushes:      s.flushes.Load(),
			Applied:      s.applied.Load(),
			ApplyErrs:    s.applyErrs.Load(),
			SynAcked:     s.synAcked.Load(),
			GuardDropped: s.guardDrops.Load(),
			Micro:        LookupStats{Hits: fwd, Misses: miss},
		}
		snap.Shards[i] = st
		snap.Processed += st.Processed
		snap.Forwarded += st.Forwarded
		snap.Misses += st.Misses
		snap.CacheDrops += st.CacheDrops
		snap.SynAcked += st.SynAcked
		snap.GuardDropped += st.GuardDropped
		s.lat.addInto(&merged)
	}
	snap.P50 = latQuantile(&merged, 0.50)
	snap.P99 = latQuantile(&merged, 0.99)
	snap.Cache = e.cache.Stats()
	snap.Replayed = e.replayed.Load()
	return snap
}

// Register attaches engine-wide counters to reg under the given prefix.
func (e *Engine) Register(reg *telemetry.Registry, prefix string) {
	if reg == nil {
		return
	}
	sum := func(f func(s *Shard) uint64) func() uint64 {
		return func() uint64 {
			var n uint64
			for _, s := range e.shards {
				n += f(s)
			}
			return n
		}
	}
	reg.CounterFunc(prefix+"_processed_total", "Packets carried end-to-end by the shards.", sum(func(s *Shard) uint64 { return s.forwarded.Load() + s.misses.Load() }))
	reg.CounterFunc(prefix+"_forwarded_total", "Packets matched and forwarded on the shard path.", sum(func(s *Shard) uint64 { return s.forwarded.Load() }))
	reg.CounterFunc(prefix+"_missed_total", "Table-miss packets handed to the cache stage.", sum(func(s *Shard) uint64 { return s.misses.Load() }))
	reg.CounterFunc(prefix+"_cache_ring_drops_total", "Misses dropped because the shard→cache ring was full.", sum(func(s *Shard) uint64 { return s.cacheDrops.Load() }))
	reg.CounterFunc(prefix+"_replayed_total", "Packets replayed to the controller by the cache stage.", e.replayed.Load)
	reg.CounterFunc(prefix+"_tcp_synacked_total", "Cookie SYN-ACKs answered by the shard SYN-proxy tier.", sum(func(s *Shard) uint64 { return s.synAcked.Load() }))
	reg.CounterFunc(prefix+"_tcp_guard_dropped_total", "Invalid TCP segments dropped by the shard SYN-proxy tier.", sum(func(s *Shard) uint64 { return s.guardDrops.Load() }))
	reg.CounterFunc(prefix+"_flowmods_applied_total", "In-band flow_mods executed by the shards.", sum(func(s *Shard) uint64 { return s.applied.Load() }))
	reg.CounterFunc(prefix+"_flowmod_errors_total", "In-band flow_mods that failed to apply.", sum(func(s *Shard) uint64 { return s.applyErrs.Load() }))
	e.parts.Register(reg, prefix+"_table")
	e.cache.Register(reg, prefix+"_cache")
	e.attr.Register(reg, prefix+"_attrib")
}
