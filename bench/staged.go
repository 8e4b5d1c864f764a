package main

import (
	"fmt"
	"time"

	"floodguard/internal/appir"
	"floodguard/internal/apps"
	"floodguard/internal/attrib"
	"floodguard/internal/dpcache"
	"floodguard/internal/flowtable"
	"floodguard/internal/journal"
	"floodguard/internal/netpkt"
	"floodguard/internal/netsim"
	"floodguard/internal/openflow"
	"floodguard/internal/rtc"
	"floodguard/internal/spsc"
	"floodguard/internal/symexec"
	"floodguard/internal/tcpguard"
)

// The staged replica pushes the workload's seeded frame sequence
// through each layer's public entry point on one goroutine, one stage
// at a time over a burst of burstLen packets, with one span per (stage,
// burst): the only way to time a layer from outside the program without
// a clock read per packet. It is a replica, not the engine: stages that
// overlap on different cores in the real run are summed here, and no
// ring ever waits. The difference to the engine's measured ns/packet is
// reported as rtc.unattributed_ns.

// stagedDPID is the datapath id the replica reports, the engine default.
const stagedDPID = 1

// collectSink gathers the packets the replica's cache replays, so the
// packet_in marshal can be timed as its own stage.
type collectSink struct {
	pkts  []netpkt.Packet
	ports []uint16
}

func (c *collectSink) CacheEmit(_ uint64, inPort uint16, pkt netpkt.Packet, _ time.Duration) {
	c.pkts = append(c.pkts, pkt)
	c.ports = append(c.ports, inPort)
}

// tagged is the shard's miss-path handoff item: the packet TOS-tagged
// with its ingress port.
func tagged(it *rtc.Item) rtc.CacheItem {
	pk := it.Pkt
	pk.NwTOS = dpcache.EncodeInPortTOS(it.InPort)
	return rtc.CacheItem{Origin: stagedDPID, Pkt: pk}
}

// stagedWire runs the replica for budget wall time at the measured
// engine rate pps (which paces the replica's virtual clock, so the
// replay ticker and attribution windows fire as often per packet as in
// the real run) and fills the busy-time layer metrics of res.
func stagedWire(p wireParams, seed int64, pps float64, budget time.Duration, tr *tracer, layer metricSet) error {
	in := genWireInputs(seed, p.sizes)
	rec := tr.recorder()

	// Rule set: exact rules, then the derived rules added one by one —
	// the table's own cost of the install, with nothing competing.
	table := flowtable.New(0)
	now := time.Now()
	for f := 0; f < p.sizes.exactFlows; f++ {
		if _, err := table.Apply(openflow.FlowMod{
			Match:   openflow.ExactFrom(&in.flowPkt[f], in.flowPort[f]),
			Command: openflow.FlowAdd, Priority: apps.PrioForward,
			Actions: []openflow.Action{openflow.Output(2)},
		}, now); err != nil {
			return fmt.Errorf("staged: exact rule: %w", err)
		}
	}
	prog, st := apps.L2Learning()
	for i, m := range in.hostMAC {
		st.Learn("macToPort", appir.MACValue(m), appir.U16Value(in.hostPort[i]))
	}
	paths, err := symexec.Explore(prog)
	if err != nil {
		return fmt.Errorf("staged: explore: %w", err)
	}
	memo := symexec.NewMemo(paths)
	rules, err := memo.Derive(st, symexec.DeriveOptions{})
	if err != nil {
		return fmt.Errorf("staged: derive: %w", err)
	}
	h := rec.begin("symexec.derive_warm", -1, 0)
	t := time.Now()
	if _, err := memo.Derive(st, symexec.DeriveOptions{}); err != nil {
		return fmt.Errorf("staged: warm derive: %w", err)
	}
	layer.set("symexec.derive_warm_ms", float64(time.Since(t))/1e6)
	rec.end(h, int64(len(rules)))

	// flowtable.add_us is the mean over the last tenth of the adds, i.e.
	// with the table at (nearly) its full size.
	tailFrom := len(rules) - len(rules)/10
	var tailNS time.Duration
	for i := range rules {
		c := &rules[i].Rule
		fm := openflow.FlowMod{Match: c.Match, Command: openflow.FlowAdd, Priority: c.Priority,
			IdleTimeout: c.IdleTimeout, HardTimeout: c.HardTimeout, Actions: c.Actions}
		t := time.Now()
		h := rec.begin("flowtable.add", -1, int64(i))
		_, err := table.Apply(fm, t)
		rec.end(h, 1)
		if i >= tailFrom {
			tailNS += time.Since(t)
		}
		if err != nil {
			return fmt.Errorf("staged: add rule %d: %w", i, err)
		}
	}
	if n := len(rules) - tailFrom; n > 0 {
		layer.set("flowtable.add_us", float64(tailNS)/1e3/float64(n))
	}

	attr := attrib.New(attrib.Config{})
	obs := attr.NewShardObserver()
	var guard *tcpguard.Guard
	if p.tcpGuard {
		guard = tcpguard.New(tcpguard.Config{Secret: uint64(subSeed(seed, streamSpoof))})
		guard.SetShardObserver(0, obs)
	}
	sim := netsim.NewEngine()
	sink := &collectSink{}
	cache := dpcache.New(sim, dpcache.Config{QueueCapacity: 4096, InitialRatePPS: replayPPS}, sink)
	cache.SetHinter(attr)
	cache.Start()
	defer cache.Stop()
	ingress := spsc.New[rtc.Item](2048)
	handoff := spsc.New[rtc.CacheItem](4096)

	sched := &schedule{in: in, spoofEvery: uint64(p.spoofEvery)}
	var (
		frames   [burstLen][]byte
		ports    [burstLen]uint16
		benign   [burstLen]bool
		items    [burstLen]rtc.Item
		order    [burstLen]int
		misses   []int
		toCache  []rtc.CacheItem
		popped   [burstLen]rtc.CacheItem
		frameBuf []byte
		msgBuf   []byte
		packets  int64
	)
	const window = 50 * time.Millisecond // the engine's attribution window
	burstDur := time.Duration(float64(burstLen) / pps * float64(time.Second))
	var sinceRoll time.Duration
	deadline := time.Now().Add(budget)
	for batch := int64(0); batch < 64 || time.Now().Before(deadline); batch++ {
		for i := range frames {
			frames[i], ports[i], benign[i] = sched.next()
		}
		root := rec.begin("bench.staged_burst", -1, batch)
		parent := rec.id(root)

		h := rec.begin("netpkt.parse", parent, batch)
		for i, f := range frames {
			pkt, err := netpkt.Parse(f)
			if err != nil {
				return fmt.Errorf("staged: parse: %w", err)
			}
			items[i] = rtc.Item{Pkt: pkt, InPort: ports[i]}
		}
		rec.end(h, burstLen)

		h = rec.begin("spsc.handoff", parent, batch)
		for i := range items {
			ingress.Push(items[i])
		}
		ingress.PopBatch(items[:])
		rec.end(h, burstLen)

		h = rec.begin("dpcache.classify", parent, batch)
		for i := range items {
			_ = dpcache.Classify(&items[i].Pkt)
		}
		rec.end(h, burstLen)

		// Lookups run benign-first, spoof-second inside the burst (a stable
		// partition) so the two kinds get a span each; the microflow
		// cache sees the same keys and fills and resets at the same pace.
		nb := 0
		for i := range items {
			if benign[i] {
				order[nb] = i
				nb++
			}
		}
		ns := nb
		for i := range items {
			if !benign[i] {
				order[ns] = i
				ns++
			}
		}
		misses = misses[:0]
		at := time.Now()
		lookup := func(name string, idx []int) {
			h := rec.begin(name, parent, batch)
			for _, i := range idx {
				pk := &items[i].Pkt
				if table.Lookup(pk, items[i].InPort, at, pk.WireLen()) == nil {
					misses = append(misses, i)
				}
			}
			rec.end(h, int64(len(idx)))
		}
		lookup("flowtable.lookup_hit", order[:nb])
		lookup("flowtable.lookup_miss", order[nb:])

		h = rec.begin("attrib.observe", parent, batch)
		for _, i := range misses {
			obs.Observe(stagedDPID, items[i].InPort, &items[i].Pkt)
		}
		rec.end(h, int64(len(misses)))

		// The SYN-proxy tier sees the TCP misses (when it is on); what it
		// does not consume is handed to the cache.
		toCache = toCache[:0]
		tcp := int64(0)
		h = rec.begin("tcpguard.process", parent, batch)
		for _, i := range misses {
			pk := &items[i].Pkt
			if guard != nil && pk.EthType == netpkt.EtherTypeIPv4 && pk.NwProto == netpkt.ProtoTCP {
				tcp++
				if guard.Process(0, stagedDPID, items[i].InPort, pk) != tcpguard.ActionPass {
					continue
				}
			}
			toCache = append(toCache, tagged(&items[i]))
		}
		rec.end(h, tcp)

		h = rec.begin("spsc.handoff", parent, batch)
		for k := range toCache {
			handoff.Push(toCache[k])
		}
		n := handoff.PopBatch(popped[:])
		rec.end(h, int64(n))

		h = rec.begin("dpcache.ingest", parent, batch)
		for k := 0; k < n; k++ {
			cache.Ingest(popped[k].Origin, popped[k].Pkt)
		}
		rec.end(h, int64(n))

		sink.pkts, sink.ports = sink.pkts[:0], sink.ports[:0]
		h = rec.begin("dpcache.replay", parent, batch)
		sim.RunFor(burstDur)
		rec.end(h, int64(len(sink.pkts)))

		h = rec.begin("openflow.packet_in", parent, batch)
		for k := range sink.pkts {
			frameBuf = sink.pkts[k].MarshalAppend(frameBuf[:0])
			msgBuf = openflow.AppendFrame(msgBuf[:0], uint32(k), openflow.PacketIn{
				BufferID: openflow.NoBuffer, TotalLen: uint16(len(frameBuf)),
				InPort: sink.ports[k], Reason: openflow.ReasonNoMatch, Data: frameBuf,
			})
		}
		rec.end(h, int64(len(sink.pkts)))

		if sinceRoll += burstDur; sinceRoll >= window {
			h = rec.begin("attrib.flush", parent, batch)
			obs.Flush()
			if guard != nil {
				guard.FlushShard(0)
			}
			rec.end(h, 1)
			h = rec.begin("attrib.roll", parent, batch)
			attr.Roll(sinceRoll)
			if guard != nil {
				guard.AdvanceWindow()
			}
			rec.end(h, 1)
			sinceRoll = 0
		}
		rec.end(root, burstLen)
		packets += burstLen
	}

	tot := selfTimes(rec.spans)
	var staged float64
	for name, t := range tot {
		switch name {
		case "flowtable.add", "symexec.derive_warm":
			continue // one-off work, not per packet
		}
		staged += float64(t.SelfNS)
	}
	staged /= float64(packets)
	for _, name := range []string{"netpkt.parse", "spsc.handoff", "dpcache.classify",
		"flowtable.lookup_hit", "flowtable.lookup_miss", "attrib.observe", "tcpguard.process",
		"dpcache.ingest", "dpcache.replay", "openflow.packet_in"} {
		layer.set(name+"_ns", tot[name].perCountNS())
	}
	layer.set("attrib.flush_us", tot["attrib.flush"].perCountNS()/1e3)
	layer.set("attrib.roll_us", tot["attrib.roll"].perCountNS()/1e3)
	layer.set("rtc.staged_ns", staged)
	layer.set("rtc.unattributed_ns", 1e9/pps-staged)
	return nil
}

// stagedSoak times the window-barrier work the soak drives — shard
// flush, attribution roll — at the soak's per-window packet count, and
// the journal's append cost, each through its public entry point.
func stagedSoak(seed int64, smoke bool, tr *tracer, layer metricSet) {
	rec := tr.recorder()
	perWindow, windows, appends := 8000, 200, 1_000_000
	if smoke {
		perWindow, windows, appends = 500, 10, 10_000
	}
	in := genWireInputs(seed, wireSizes{hosts: 1024, flows: 256, spoofPool: 1 << 14})
	sched := &schedule{in: in, spoofEvery: 2}
	attr := attrib.New(attrib.Config{})
	obs := attr.NewShardObserver()
	for w := 0; w < windows; w++ {
		for i := 0; i < perWindow; i++ {
			f, port, _ := sched.next()
			pkt, err := netpkt.Parse(f)
			if err != nil {
				continue
			}
			obs.Observe(stagedDPID, port, &pkt)
		}
		h := rec.begin("attrib.flush", -1, int64(w))
		obs.Flush()
		rec.end(h, 1)
		h = rec.begin("attrib.roll", -1, int64(w))
		attr.Roll(100 * time.Millisecond)
		rec.end(h, 1)
	}
	j := journal.ForEngine(1)
	jr := j.ShardRec(0)
	h := rec.begin("journal.append", -1, 0)
	for i := 0; i < appends; i++ {
		jr.Record(journal.KindShardFlush, 0, 0, stagedDPID, 0, float64(i), 0, 0)
		if i%1024 == 1023 {
			j.Drain()
		}
	}
	rec.end(h, int64(appends))
	tot := selfTimes(rec.spans)
	layer.set("attrib.flush_us", tot["attrib.flush"].perCountNS()/1e3)
	layer.set("attrib.roll_us", tot["attrib.roll"].perCountNS()/1e3)
	layer.set("journal.append_ns", tot["journal.append"].perCountNS())
	layer.set("journal.dropped", float64(j.Dropped()))
}
