// Package rtc is the run-to-completion packet engine: the million-pps
// reshaping of the FloodGuard hot path. Instead of hopping every packet
// across goroutine-per-layer channels (ingress → classifier → flow
// table → attribution → data plane cache), the engine partitions ports
// across N shards, and each shard carries its packets end-to-end in a
// single goroutine: flow-table lookup in the shard's own table
// partition, attribution observation into shard-local sketches, and —
// for table misses — TOS tagging plus a lock-free ring-buffer handoff to
// the data plane cache stage. The shard reads its ingress items where
// they lie in the ring and hands their slots back once per batch.
//
// The per-packet shard path takes zero locks and performs zero
// allocations, hit or miss: a running shard holds its partition lock
// from one wait for ingress to the next and lets go in between only at
// a batch top where a flow_mod waits, so it is taken once per idle
// transition or handoff, never per packet (DESIGN.md §15). Its counts
// are plain fields, published with the batch's shard→cache ring slots
// once per ingress batch and at every flush (DESIGN.md §12, "Counter
// publication").
// Shared state is reconciled at window boundaries only — the shard
// folds its attribution deltas (count-min cells and per-port sample
// counts) into the shared Attributor via the sketch merge path, exactly
// like the sweep shard-invariance contract in internal/experiments, and
// hands its TCP handshake deltas over whole for the next Roll to fold
// in.
//
// The cache stage owns a dpcache.Cache on a discrete-event
// netsim.Engine. Against the wall clock it is its own goroutine: it
// pumps that engine in real time, so the paper's rate-limited replay
// ticker fires while ingest arrives over the per-shard SPSC rings.
//
// In manual (virtual-time) mode the engine has no goroutine and no ring
// at all: the harness runs every shard's body itself (InjectItem), a
// miss goes straight into the cache, Flush is the window barrier and
// Advance pumps virtual time. One goroutine, one order — determinism
// comes from the structure, not from a barrier protocol.
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
// producers stamp one packet in DefaultLatencySample.
type Item struct {
	Pkt          netpkt.Packet
	InPort       uint16
	IngressNanos int64
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
	// TableCapacity bounds the flow table in aggregate (0 = unbounded;
	// split evenly, rounded up, over the shards' partitions).
	TableCapacity int
	// RingCapacity sizes each shard's ingress ring (default 2048; wall
	// clock only).
	RingCapacity int
	// CacheRingCapacity sizes each shard→cache handoff ring (default
	// 4096; wall clock only).
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
	// Manual switches the engine to harness-driven virtual time on the
	// harness's goroutine alone: New builds no ring and Start launches no
	// goroutine. InjectItem carries each packet end to end on the caller,
	// a miss going straight into the cache; Apply finds every partMu free
	// and applies on the caller; Flush folds every shard's attribution
	// and SYN-proxy deltas in shard order; Advance pumps the
	// discrete-event engine to a virtual time.
	// The attribution window never rolls on its own (the harness calls
	// Attributor().Roll at its own barriers). Two manual runs fed the same
	// item, Apply and barrier sequence produce identical counters — the
	// soak harness's determinism contract.
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
	// journal.ForEngine(Shards): each shard takes its own recorder slot
	// (flush barriers, sampled handoff-ring drops), the cache stage takes
	// the cache slot (verdict flips, watermarks), and attribution takes
	// its slot (suspect/blame/heal evidence). The cache stage doubles as
	// the journal's drain consumer while the engine runs; after Stop the
	// harness may Drain/Events it freely.
	Journal *journal.Journal
}

// DefaultLatencySample is the conventional 1-in-N latency stamp rate.
// The engine accepts whatever stamps producers set.
const DefaultLatencySample = 8

const (
	// datapathID identifies the engine's datapath in attribution, cache
	// and journal accounting.
	datapathID uint64 = 1
	// shardBatch is the most ingress items one step carries in place;
	// their ring slots go back to the producer when the step releases them.
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
}

// Shard is one run-to-completion worker: it owns its table partition,
// its attribution observer, its statistics and, against the wall clock,
// its goroutine and rings. All per-packet state is goroutine-local.
type Shard struct {
	id  int
	eng *Engine

	// in and toCache are the ingress and shard→cache rings; both are nil
	// in manual mode, where the harness runs the shard body itself.
	in      *spsc.Ring[Item]
	toCache *spsc.Ring[CacheItem]

	// part is the shard-owned flow table partition: lookups and rule
	// application touch only it — zero locks on the packet path.
	part *flowtable.Table
	// partMu makes part its holder's: a running wall-clock shard's except
	// while it waits for ingress or hands over to Apply callers, who
	// count themselves in waiters before they ask for it (apply.go).
	partMu  sync.Mutex
	waiters atomic.Int32

	obs *attrib.ShardObserver

	// n is the packet accounting, written by the shard's owner alone;
	// pub is the copy publish stores once per batch for every other reader.
	n   shardCounts
	pub struct{ forwarded, misses, cacheDrops, synAcked, guardDrops atomic.Uint64 }

	flushes   atomic.Uint64
	applied   atomic.Uint64
	applyErrs atomic.Uint64

	// jrec is this shard's journal recorder (nil when no journal is
	// attached; Record on nil is a no-op).
	jrec *journal.Recorder

	lat latHist
	// nextFlush is the wall-clock loop's next window barrier.
	nextFlush time.Time
}

// shardCounts is a shard's packet accounting. Every packet bumps exactly
// one of forwarded and misses; processed is their sum, derived on read.
type shardCounts struct {
	forwarded, misses, cacheDrops, synAcked, guardDrops uint64
}

// publish commits the batch's ring slots and stores the counters the
// batch changed (each store is a fence). Owner only.
func (s *Shard) publish() {
	if s.toCache != nil {
		s.toCache.Commit()
	}
	store := func(a *atomic.Uint64, v uint64) {
		if a.Load() != v {
			a.Store(v)
		}
	}
	store(&s.pub.forwarded, s.n.forwarded)
	store(&s.pub.misses, s.n.misses)
	store(&s.pub.cacheDrops, s.n.cacheDrops)
	store(&s.pub.synAcked, s.n.synAcked)
	store(&s.pub.guardDrops, s.n.guardDrops)
}

// Ring returns the shard's ingress ring (nil in manual mode). Exactly
// one producer goroutine may push to it (the SPSC contract).
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
// count the flow_mods applied against the shard's partition.
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
	attr   *attrib.Attributor
	guard  *tcpguard.Guard
	shards []*Shard

	sim      *netsim.Engine
	cache    *dpcache.Cache
	replayed atomic.Uint64

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
		cfg:  cfg,
		attr: attrib.New(cfg.Attrib),
		sim:  netsim.NewEngine(),
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
	per := 0
	if cfg.TableCapacity > 0 {
		per = (cfg.TableCapacity + cfg.Shards - 1) / cfg.Shards
	}
	e.shards = make([]*Shard, cfg.Shards)
	for i := range e.shards {
		s := &Shard{
			id:   i,
			eng:  e,
			part: flowtable.New(per),
			obs:  e.attr.NewShardObserver(),
			jrec: cfg.Journal.ShardRec(i),
		}
		if !cfg.Manual {
			s.in = spsc.New[Item](cfg.RingCapacity)
			s.toCache = spsc.New[CacheItem](cfg.CacheRingCapacity)
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

// ShardFor maps an ingress port to its owning shard.
func (e *Engine) ShardFor(port uint16) int { return int(port) % len(e.shards) }

// Shard returns shard i.
func (e *Engine) Shard(i int) *Shard { return e.shards[i] }

// TableRules returns the installed rule count summed over partitions
// (broadcast rules count once per partition). Safe from any goroutine —
// it reads mutation-point mirrors.
func (e *Engine) TableRules() int {
	n := 0
	for _, s := range e.shards {
		n += s.part.RuleCount()
	}
	return n
}

// Attributor exposes the shared attribution engine (verdict reads).
func (e *Engine) Attributor() *attrib.Attributor { return e.attr }

// TCPGuard exposes the SYN-proxy tier (nil when disabled). Stats and
// Window are safe live; per-connection introspection needs a shard
// barrier.
func (e *Engine) TCPGuard() *tcpguard.Guard { return e.guard }

// GuardCounters sums the shard-level SYN-proxy accounting: cookie
// SYN-ACKs answered and invalid segments dropped on the miss path, read
// like Counters.
func (e *Engine) GuardCounters() (synAcked, guardDropped uint64) {
	e.publishManual()
	for _, s := range e.shards {
		synAcked += s.pub.synAcked.Load()
		guardDropped += s.pub.guardDrops.Load()
	}
	return
}

// publishManual publishes every shard in manual mode, whose caller owns
// the shards; against the wall clock only the shard goroutines publish.
func (e *Engine) publishManual() {
	if e.cfg.Manual {
		for _, s := range e.shards {
			s.publish()
		}
	}
}

// Cache exposes the data plane cache. It is owned by the cache stage:
// in manual mode that is the harness, which may mutate it (SetRate,
// rule table) between any two calls into the engine; against the wall
// clock it is the cache goroutine, so mutate it only after Stop.
func (e *Engine) Cache() *dpcache.Cache { return e.cache }

// InjectItem hands one item to its owning shard. Against the wall clock
// it pushes to the shard's ingress ring and returns false when the ring
// is full; one producer per shard — concurrent injectors must partition
// ports so no two push to the same shard. In manual mode it runs the
// shard body on the caller, stamped with virtual time: lookup,
// attribution, the SYN-proxy tier and, for a miss, cache ingest are
// done when it returns true.
func (e *Engine) InjectItem(it Item) bool {
	s := e.shards[e.ShardFor(it.InPort)]
	if e.cfg.Manual {
		s.processOne(&it, e.sim.Now())
		return true
	}
	return s.in.Push(it)
}

// Start launches the shard goroutines and the cache-stage goroutine; in
// manual mode it starts only the cache's replay ticker.
func (e *Engine) Start() {
	if !e.started.CompareAndSwap(false, true) {
		return
	}
	e.cache.Start()
	if e.cfg.Manual {
		return
	}
	for _, s := range e.shards {
		e.wgShards.Add(1)
		go s.run()
	}
	e.wgCache.Add(1)
	go e.cacheLoop()
}

// Stop closes the ingress rings, waits for the shards to drain and
// flush their final attribution deltas (each lets go of its partition
// on exit, so an Apply caller still waiting then applies its mod), then
// waits for the cache stage to drain the handoff rings and rolls the
// last detection window. In manual mode it is the final Flush, on the
// caller's goroutine. The engine cannot be restarted; Apply on a
// stopped engine finds every partition free.
func (e *Engine) Stop() {
	if !e.started.Load() || e.stopped.Load() {
		return
	}
	if e.cfg.Manual {
		e.Flush()
		e.cache.Stop()
		e.cfg.Journal.Drain()
		e.stopped.Store(true)
		return
	}
	for _, s := range e.shards {
		s.in.Close()
	}
	e.wgShards.Wait()
	e.wgCache.Wait()
	e.stopped.Store(true)
	e.attr.Roll(e.cfg.Window) // close the last detection window
}

// Flush is the manual-mode window barrier: every shard, in shard order,
// folds its attribution deltas into the shared Attributor, sweeps its
// SYN-proxy connection table and journals its barrier heartbeat — what
// each shard goroutine does on its own window timer against the wall
// clock. Manual mode only.
func (e *Engine) Flush() {
	for _, s := range e.shards {
		s.flush()
	}
}

// Advance pumps the discrete-event engine — replay ticks, scheduled
// events — to d past the sim epoch and drains the journal, on the
// caller's goroutine. Manual mode only. Every miss was ingested when
// its InjectItem returned, so the sequence of sim events (and thus
// every replay emission and drop) is a pure function of the item
// sequence and the Advance schedule.
func (e *Engine) Advance(d time.Duration) {
	e.sim.RunUntil(netsim.Epoch.Add(d))
	e.cfg.Journal.Drain()
}

// Counters returns the engine-wide packet accounting: processed,
// forwarded, misses, and shard→cache ring drops. Against the wall clock
// it is safe from any goroutine and reads what each shard last
// published: whole batches, exact once every injected packet was
// observed processed. In manual mode it publishes first.
func (e *Engine) Counters() (processed, forwarded, misses, ringDrops uint64) {
	e.publishManual()
	for _, s := range e.shards {
		forwarded += s.pub.forwarded.Load()
		misses += s.pub.misses.Load()
		ringDrops += s.pub.cacheDrops.Load()
	}
	return forwarded + misses, forwarded, misses, ringDrops
}

// CacheStats snapshots the data plane cache counters (atomics only —
// safe live from any goroutine).
func (e *Engine) CacheStats() dpcache.Stats { return e.cache.Stats() }

// ReplayedTotal returns how many packets the cache stage delivered to
// the controller path.
func (e *Engine) ReplayedTotal() uint64 { return e.replayed.Load() }

// run is the wall-clock shard loop: step over ingress batches while
// there are any, and park in Wait when the ring is empty. The loop
// holds partMu throughout and lets go only at batch-top handoffs, around
// Wait and at exit, so a flow_mod that arrives while the shard waits for
// ingress is applied by its caller and never waits on traffic, and
// nobody has to wake the shard.
func (s *Shard) run() {
	defer s.eng.wgShards.Done()
	defer s.toCache.Close()
	s.partMu.Lock()
	s.nextFlush = time.Now().Add(s.eng.cfg.Window)
	for {
		if s.step() > 0 {
			continue
		}
		if s.in.Closed() {
			if s.in.Len() > 0 {
				continue // pushed between the pop and the close flag
			}
			s.flush() // final merge before the ring goes away
			s.partMu.Unlock()
			return
		}
		s.partMu.Unlock()
		s.in.Wait()
		s.partMu.Lock()
	}
}

// step is one batch of the shard loop, run holding partMu: hand the
// partition to waiting Apply callers, peek at up to shardBatch ingress
// items and carry each end-to-end where it lies in the ring, with one
// time.Now, release their slots to the producer, then flush at a window
// boundary or else publish. It returns how many packets it carried.
func (s *Shard) step() int {
	s.handoff()
	batch := s.in.Peek(shardBatch)
	n := len(batch)
	if n == 0 {
		return 0
	}
	now := time.Now()
	for i := range batch {
		s.processOne(&batch[i], now)
	}
	s.in.Release(n)
	if now.After(s.nextFlush) {
		s.flush()
		s.nextFlush = now.Add(s.eng.cfg.Window)
	} else {
		s.publish()
	}
	return n
}

// processOne carries one packet end-to-end on the caller's goroutine —
// the run-to-completion body, shared by the wall-clock shard loop and
// manual mode's InjectItem. It takes zero locks and allocates nothing,
// hit or miss; a miss goes straight into a reserved ring slot. The shard
// does no work whose result it throws away: the protocol class matters
// only to the cache's queues, so the cache computes it when it ingests a
// miss, and a forwarded packet is never classified.
func (s *Shard) processOne(it *Item, now time.Time) {
	p := &it.Pkt
	if entry := s.part.Lookup(p, it.InPort, now, p.WireLen()); entry != nil {
		// Forwarded: in a hardware datapath the actions would be executed
		// here; the engine accounts them and moves on.
		s.n.forwarded++
	} else {
		s.n.misses++
		s.obs.Observe(datapathID, it.InPort, p)
		if !s.guardConsumed(p, it.InPort) {
			if s.toCache == nil {
				// Manual mode: the caller is the cache stage too.
				tagged := *p
				tagged.NwTOS = dpcache.EncodeInPortTOS(it.InPort)
				s.eng.cache.Ingest(datapathID, tagged)
			} else if slot := s.toCache.Reserve(); slot != nil {
				slot.Origin = datapathID
				slot.Pkt = *p
				slot.Pkt.NwTOS = dpcache.EncodeInPortTOS(it.InPort)
			} else {
				s.n.cacheDrops++
				// Power-of-two sampled: a sustained overload journals
				// O(log drops) events, not one per packet.
				if d := s.n.cacheDrops; d&(d-1) == 0 {
					s.jrec.Record(journal.KindRingDrop, 0, 0, datapathID, it.InPort, float64(d), 0, 0)
				}
			}
		}
	}
	if it.IngressNanos != 0 {
		s.lat.observe(time.Duration(now.UnixNano() - it.IngressNanos))
	}
}

// guardConsumed runs the SYN-proxy tier on one table-miss packet,
// still in the shard body (the run-to-completion contract: the
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
		s.n.synAcked++
		// Power-of-two sampled, like ring drops: a SYN flood journals
		// O(log answered) cookie events.
		if n := s.n.synAcked; n&(n-1) == 0 {
			s.jrec.Record(journal.KindTCPCookie, 0, 0, datapathID, inPort, float64(n), 0, 0)
		}
		return true
	case tcpguard.ActionDrop:
		s.n.guardDrops++
		return true
	}
	return false
}

// flush is the shard's window barrier: publish, fold its attribution
// deltas into the shared Attributor, sweep its guard connection table
// (idle/closed eviction) and journal the heartbeat. Shard goroutine
// only (in manual mode, the harness through Engine.Flush).
func (s *Shard) flush() {
	s.publish()
	s.obs.Flush()
	if g := s.eng.guard; g != nil {
		g.FlushShard(s.id)
	}
	s.noteFlush()
}

// noteFlush counts a window-barrier merge and journals the shard's
// cumulative counters at the barrier — the per-shard heartbeat a dump
// reader uses to align shard progress with control-plane decisions.
func (s *Shard) noteFlush() {
	s.flushes.Add(1)
	s.jrec.Record(journal.KindShardFlush, 0, 0, datapathID, uint16(s.id),
		float64(s.n.forwarded+s.n.misses), float64(s.n.misses), float64(s.n.cacheDrops))
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
// the cache stage's stats. Safe to call live, where it reads what the
// shards last published (see Counters); exact once Stop returned.
func (e *Engine) Snapshot() Snapshot {
	var snap Snapshot
	var merged [latBuckets]uint64
	e.publishManual()
	snap.Shards = make([]ShardStats, len(e.shards))
	for i, s := range e.shards {
		fwd, miss := s.pub.forwarded.Load(), s.pub.misses.Load()
		st := ShardStats{
			Processed:    fwd + miss,
			Forwarded:    fwd,
			Misses:       miss,
			CacheDrops:   s.pub.cacheDrops.Load(),
			Flushes:      s.flushes.Load(),
			Applied:      s.applied.Load(),
			ApplyErrs:    s.applyErrs.Load(),
			SynAcked:     s.pub.synAcked.Load(),
			GuardDropped: s.pub.guardDrops.Load(),
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
	reg.CounterFunc(prefix+"_processed_total", "Packets carried end-to-end by the shards.", sum(func(s *Shard) uint64 { return s.pub.forwarded.Load() + s.pub.misses.Load() }))
	reg.CounterFunc(prefix+"_forwarded_total", "Packets matched and forwarded on the shard path.", sum(func(s *Shard) uint64 { return s.pub.forwarded.Load() }))
	reg.CounterFunc(prefix+"_missed_total", "Table-miss packets handed to the cache stage.", sum(func(s *Shard) uint64 { return s.pub.misses.Load() }))
	reg.CounterFunc(prefix+"_cache_ring_drops_total", "Misses dropped because the shard→cache ring was full.", sum(func(s *Shard) uint64 { return s.pub.cacheDrops.Load() }))
	reg.CounterFunc(prefix+"_replayed_total", "Packets replayed to the controller by the cache stage.", e.replayed.Load)
	reg.CounterFunc(prefix+"_tcp_synacked_total", "Cookie SYN-ACKs answered by the shard SYN-proxy tier.", sum(func(s *Shard) uint64 { return s.pub.synAcked.Load() }))
	reg.CounterFunc(prefix+"_tcp_guard_dropped_total", "Invalid TCP segments dropped by the shard SYN-proxy tier.", sum(func(s *Shard) uint64 { return s.pub.guardDrops.Load() }))
	reg.CounterFunc(prefix+"_flowmods_applied_total", "Flow_mods applied against the shard partitions.", sum(func(s *Shard) uint64 { return s.applied.Load() }))
	reg.CounterFunc(prefix+"_flowmod_errors_total", "Flow_mods that failed to apply against a shard partition.", sum(func(s *Shard) uint64 { return s.applyErrs.Load() }))
	reg.GaugeFunc(prefix+"_table_rules", "Installed flow rules summed over partitions (broadcast rules count once per partition).", func() float64 {
		return float64(e.TableRules())
	})
	reg.GaugeFunc(prefix+"_table_partitions", "Flow table partition count.", func() float64 {
		return float64(len(e.shards))
	})
	e.cache.Register(reg, prefix+"_cache")
	e.attr.Register(reg, prefix+"_attrib")
}
