package soak

import (
	"time"

	"floodguard/internal/attrib"
	"floodguard/internal/dpcache"
	"floodguard/internal/flowtable"
	"floodguard/internal/netpkt"
	"floodguard/internal/netsim"
	"floodguard/internal/openflow"
	"floodguard/internal/rtc"
	"floodguard/internal/tcpguard"
)

// reference is the differential tier's oracle: the whole pipeline — table
// lookup, attribution, SYN-proxy tier, cache ingest, rate-limited replay
// — executed inline on the harness goroutine, one packet at a time. It is
// independent of the engine's shard structure: one unpartitioned table,
// attribution observed per packet instead of merged from shard observers
// at the barrier, and no shard body. What the two share is the
// components underneath (flowtable.Table, attrib, tcpguard, dpcache,
// netsim). The guard keeps the engine's port%shards partitioning because
// its per-shard capacity is observable (ConnBudget, watermarks).
type reference struct {
	shards int
	table  *flowtable.Table
	attr   *attrib.Attributor
	guard  *tcpguard.Guard
	tcp    *attrib.ShardObserver // carries guard verdicts to the barrier merge
	sim    *netsim.Engine
	cache  *dpcache.Cache
	seen   func(origin uint64, origInPort uint16, pkt netpkt.Packet, queued time.Duration)

	forwarded, misses, synAcked, guardDropped, replayed uint64
}

// refDPID is rtc.Config's default datapath id.
const refDPID = 1

func newReference(cfg rtc.Config) pipeline {
	r := &reference{
		shards: cfg.Shards,
		table:  flowtable.New(cfg.TableCapacity),
		attr:   attrib.New(cfg.Attrib),
		sim:    netsim.NewEngine(),
		seen:   cfg.ReplayObserver,
	}
	r.cache = dpcache.New(r.sim, dpcache.Config{QueueCapacity: cfg.QueueCapacity, InitialRatePPS: cfg.ReplayPPS}, r)
	r.cache.SetHinter(r.attr)
	if cfg.TCPGuard != nil {
		gcfg := *cfg.TCPGuard
		gcfg.Shards = cfg.Shards
		r.guard = tcpguard.New(gcfg)
		r.tcp = r.attr.NewShardObserver()
		for i := 0; i < cfg.Shards; i++ {
			r.guard.SetShardObserver(i, r.tcp)
		}
	}
	return r
}

func (r *reference) CacheEmit(origin uint64, origInPort uint16, pkt netpkt.Packet, queued time.Duration) {
	r.replayed++
	r.seen(origin, origInPort, pkt, queued)
}

func (r *reference) InjectItem(it rtc.Item) bool {
	shard := int(it.InPort) % r.shards
	p := &it.Pkt
	if r.table.Lookup(p, it.InPort, time.Time{}, p.WireLen()) != nil {
		r.forwarded++
		return true
	}
	r.misses++
	r.attr.ObservePacket(refDPID, it.InPort, p)
	if r.guard != nil && p.EthType == netpkt.EtherTypeIPv4 && p.NwProto == netpkt.ProtoTCP {
		switch r.guard.Process(shard, refDPID, it.InPort, p) {
		case tcpguard.ActionAnswer:
			r.synAcked++
			return true
		case tcpguard.ActionDrop:
			r.guardDropped++
			return true
		}
	}
	tagged := *p
	tagged.NwTOS = dpcache.EncodeInPortTOS(it.InPort)
	r.cache.Ingest(refDPID, tagged)
	return true
}

func (r *reference) Flush() {
	if r.guard != nil {
		r.tcp.Flush()
		for i := 0; i < r.shards; i++ {
			r.guard.FlushShard(i)
		}
	}
}

func (r *reference) Advance(d time.Duration) { r.sim.RunUntil(netsim.Epoch.Add(d)) }

func (r *reference) Apply(m openflow.FlowMod) error {
	_, err := r.table.Apply(m, time.Time{})
	return err
}

func (r *reference) Start()                         { r.cache.Start() }
func (r *reference) Stop()                          { r.cache.Stop() }
func (r *reference) GuardCounters() (a, d uint64)   { return r.synAcked, r.guardDropped }
func (r *reference) TCPGuard() *tcpguard.Guard      { return r.guard }
func (r *reference) TableRules() int                { return r.table.Len() }
func (r *reference) CacheStats() dpcache.Stats      { return r.cache.Stats() }
func (r *reference) Attributor() *attrib.Attributor { return r.attr }
func (r *reference) Cache() *dpcache.Cache          { return r.cache }
func (r *reference) ReplayedTotal() uint64          { return r.replayed }
func (r *reference) Counters() (processed, forwarded, misses, ringDrops uint64) {
	return r.forwarded + r.misses, r.forwarded, r.misses, 0
}
