// The channel-hop baseline: the pre-sharding architecture, kept as a
// measurable artifact. Packets hop between stage goroutines over Go
// channels (ingress → classify → lookup → cache), the flow table is a
// single mutex-guarded instance, and attribution is fed per packet under
// the attributor's own lock. The baseline is allowed the same worker
// parallelism as the engine has shards — what it cannot shed is the
// per-packet channel hops and the shared-lock serialization, which is
// exactly what the sustained-pps macro benchmark quantifies.
package rtc

import (
	"sync"
	"sync/atomic"
	"time"

	"floodguard/internal/attrib"
	"floodguard/internal/dpcache"
	"floodguard/internal/flowtable"
	"floodguard/internal/netpkt"
	"floodguard/internal/netsim"
	"floodguard/internal/openflow"
)

// Baseline is the channel-hop pipeline, exposing the same Inject /
// Apply / Snapshot surface as Engine so the macro benchmark can drive
// either through one code path.
type Baseline struct {
	cfg Config

	mu    sync.Mutex // guards table (lookup and mutation)
	table *flowtable.Table
	attr  *attrib.Attributor

	ingress    chan Item
	classified chan Item
	looked     chan CacheItem

	sim      *netsim.Engine
	cache    *dpcache.Cache
	replayed atomic.Uint64

	simTarget atomic.Int64
	simDone   atomic.Int64
	ctrl      chan func()
	cacheGone chan struct{}

	// processed is forwarded + misses, derived on read (as in Shard).
	forwarded  atomic.Uint64
	misses     atomic.Uint64
	cacheDrops atomic.Uint64

	lat latHist

	wgStages sync.WaitGroup
	wgLookup sync.WaitGroup
	wgCache  sync.WaitGroup
	started  bool
}

// NewBaseline builds the channel pipeline with the same knobs as the
// engine (Shards becomes the per-stage worker count).
func NewBaseline(cfg Config) *Baseline {
	cfg.normalize()
	b := &Baseline{
		cfg:        cfg,
		table:      flowtable.New(cfg.TableCapacity),
		attr:       attrib.New(cfg.Attrib),
		ingress:    make(chan Item, cfg.RingCapacity),
		classified: make(chan Item, cfg.RingCapacity),
		looked:     make(chan CacheItem, cfg.CacheRingCapacity),
		sim:        netsim.NewEngine(),
		ctrl:       make(chan func(), 16),
		cacheGone:  make(chan struct{}),
	}
	b.cache = dpcache.New(b.sim, dpcache.Config{
		QueueCapacity:   cfg.QueueCapacity,
		InitialRatePPS:  cfg.ReplayPPS,
		ProcessingDelay: 0,
	}, replaySink{n: &b.replayed, obs: cfg.ReplayObserver})
	b.cache.SetHinter(b.attr)
	return b
}

// Attributor exposes the shared attribution engine.
func (b *Baseline) Attributor() *attrib.Attributor { return b.attr }

// Cache exposes the data plane cache (same ownership contract as
// Engine.Cache: RunOnCache for mutations while running).
func (b *Baseline) Cache() *dpcache.Cache { return b.cache }

// Apply installs a flow_mod under the table lock.
func (b *Baseline) Apply(m openflow.FlowMod) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, err := b.table.Apply(m, time.Now())
	return err
}

// Inject offers one packet to the pipeline, returning false when the
// ingress channel is full. Safe from any goroutine.
func (b *Baseline) Inject(pkt netpkt.Packet, inPort uint16) bool {
	select {
	case b.ingress <- Item{Pkt: pkt, InPort: inPort}:
		return true
	default:
		return false
	}
}

// InjectItem offers a pre-stamped item (latency sampling).
func (b *Baseline) InjectItem(it Item) bool {
	select {
	case b.ingress <- it:
		return true
	default:
		return false
	}
}

// Start launches the stage workers and the cache stage.
func (b *Baseline) Start() {
	if b.started {
		return
	}
	b.started = true
	b.cache.Start()
	for i := 0; i < b.cfg.Shards; i++ {
		b.wgStages.Add(1)
		go b.classifyLoop()
		b.wgLookup.Add(1)
		go b.lookupLoop()
	}
	b.wgCache.Add(1)
	go b.cacheLoop()
}

// Stop closes the ingress, waits for each stage to drain in turn, and
// closes the final attribution window.
func (b *Baseline) Stop() {
	if !b.started {
		return
	}
	close(b.ingress)
	b.wgStages.Wait()
	close(b.classified)
	b.wgLookup.Wait()
	close(b.looked)
	b.wgCache.Wait()
	if !b.cfg.Manual {
		b.attr.Roll(b.cfg.Window)
	}
}

// SetSimTarget mirrors Engine.SetSimTarget for manual-mode harnesses.
func (b *Baseline) SetSimTarget(d time.Duration) {
	for {
		cur := b.simTarget.Load()
		if int64(d) <= cur {
			return
		}
		if b.simTarget.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// SimReached mirrors Engine.SimReached.
func (b *Baseline) SimReached() time.Duration { return time.Duration(b.simDone.Load()) }

// RunOnCache mirrors Engine.RunOnCache: run fn on the cache-stage
// goroutine and wait, falling back to inline execution once the cache
// stage has exited.
func (b *Baseline) RunOnCache(fn func()) {
	done := make(chan struct{})
	wrapped := func() { fn(); close(done) }
	select {
	case b.ctrl <- wrapped:
	case <-b.cacheGone:
		fn()
		return
	}
	select {
	case <-done:
	case <-b.cacheGone:
		select {
		case <-done:
		default:
			fn()
		}
	}
}

// Counters mirrors Engine.Counters (drops here are looked-channel
// overflows rather than ring drops).
func (b *Baseline) Counters() (processed, forwarded, misses, ringDrops uint64) {
	forwarded, misses = b.forwarded.Load(), b.misses.Load()
	return forwarded + misses, forwarded, misses, b.cacheDrops.Load()
}

// CacheStats snapshots the data plane cache counters.
func (b *Baseline) CacheStats() dpcache.Stats { return b.cache.Stats() }

// ReplayedTotal returns the controller-path delivery count.
func (b *Baseline) ReplayedTotal() uint64 { return b.replayed.Load() }

func (b *Baseline) classifyLoop() {
	defer b.wgStages.Done()
	for it := range b.ingress {
		_ = dpcache.Classify(&it.Pkt)
		b.classified <- it
	}
}

func (b *Baseline) lookupLoop() {
	defer b.wgLookup.Done()
	dpid := b.cfg.DPID
	for it := range b.classified {
		if it.Flush {
			// Shard-flush sentinels are meaningless here: the baseline feeds
			// attribution per packet, so the deltas are already merged.
			continue
		}
		now := time.Now()
		b.mu.Lock()
		entry := b.table.Lookup(&it.Pkt, it.InPort, now, it.Pkt.WireLen())
		b.mu.Unlock()
		if entry != nil {
			_ = entry.SharedActions()
			b.forwarded.Add(1)
		} else {
			b.misses.Add(1)
			b.attr.ObservePacket(dpid, it.InPort, &it.Pkt)
			tagged := it.Pkt
			tagged.NwTOS = dpcache.EncodeInPortTOS(it.InPort)
			select {
			case b.looked <- CacheItem{Origin: dpid, Pkt: tagged}:
			default:
				b.cacheDrops.Add(1)
			}
		}
		if it.IngressNanos != 0 {
			b.lat.observe(now.Sub(time.Unix(0, it.IngressNanos)))
		}
	}
}

func (b *Baseline) cacheLoop() {
	defer b.wgCache.Done()
	defer close(b.cacheGone)
	if b.cfg.Manual {
		b.manualCacheLoop()
		return
	}
	start := time.Now()
	lastRoll := start
	open := true
	for {
		drained := 0
	drain:
		for open && drained < 256 {
			select {
			case ci, ok := <-b.looked:
				if !ok {
					open = false
					break drain
				}
				b.cache.Ingest(ci.Origin, ci.Pkt)
				drained++
			default:
				break drain
			}
		}
		now := time.Now()
		b.sim.RunUntil(netsim.Epoch.Add(now.Sub(start)))
		if now.Sub(lastRoll) >= b.cfg.Window {
			b.attr.Roll(now.Sub(lastRoll))
			lastRoll = now
		}
		if !open {
			b.cache.Stop()
			return
		}
		if drained == 0 {
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// manualCacheLoop mirrors Engine.manualCacheLoop: virtual-time pump to
// the harness target, control closures between drains, no self-rolled
// attribution windows.
func (b *Baseline) manualCacheLoop() {
	open := true
	for {
		drained := 0
	drain:
		for open && drained < 256 {
			select {
			case ci, ok := <-b.looked:
				if !ok {
					open = false
					break drain
				}
				b.cache.Ingest(ci.Origin, ci.Pkt)
				drained++
			default:
				break drain
			}
		}
		for {
			select {
			case fn := <-b.ctrl:
				fn()
				continue
			default:
			}
			break
		}
		if target := b.simTarget.Load(); target > b.simDone.Load() {
			b.sim.RunUntil(netsim.Epoch.Add(time.Duration(target)))
			b.simDone.Store(target)
		}
		if !open {
			b.cache.Stop()
			return
		}
		if drained == 0 {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// Snapshot mirrors Engine.Snapshot for the baseline.
func (b *Baseline) Snapshot() Snapshot {
	var snap Snapshot
	var merged [latBuckets]uint64
	snap.Forwarded = b.forwarded.Load()
	snap.Misses = b.misses.Load()
	snap.Processed = snap.Forwarded + snap.Misses
	snap.CacheDrops = b.cacheDrops.Load()
	b.lat.addInto(&merged)
	snap.P50 = latQuantile(&merged, 0.50)
	snap.P99 = latQuantile(&merged, 0.99)
	snap.Cache = b.cache.Stats()
	snap.Replayed = b.replayed.Load()
	return snap
}
