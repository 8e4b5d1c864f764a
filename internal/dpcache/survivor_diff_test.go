package dpcache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"floodguard/internal/flowtable"
	"floodguard/internal/netpkt"
	"floodguard/internal/netsim"
	"floodguard/internal/openflow"
)

// byValueFIFO and byValueCache are the queues as they were before entries
// moved by slot: every entry built on the stack and copied into and out
// of the ring, drop-oldest as advance-then-write, pops returning copies.
// They are the reference for which packets survive the queues and in
// what order they are replayed.
type byValueFIFO struct {
	buf                        []entry
	capacity, head, n, dropped int
}

func (f *byValueFIFO) grow() bool {
	if len(f.buf) >= f.capacity {
		return false
	}
	buf := make([]entry, min(max(2*len(f.buf), 16), f.capacity))
	k := copy(buf, f.buf[f.head:])
	copy(buf[k:], f.buf[:f.head])
	f.buf, f.head = buf, 0
	return true
}

func (f *byValueFIFO) push(e entry) {
	if f.n == len(f.buf) && !f.grow() {
		f.head = (f.head + 1) % len(f.buf)
		f.n--
		f.dropped++
	}
	f.buf[(f.head+f.n)%len(f.buf)] = e
	f.n++
}

func (f *byValueFIFO) pop() (entry, bool) {
	if f.n == 0 {
		return entry{}, false
	}
	e := f.buf[f.head]
	f.head = (f.head + 1) % len(f.buf)
	f.n--
	return e, true
}

type byValueCache struct {
	eng                      *netsim.Engine
	cfg                      Config
	sink                     Sink
	hinter                   Hinter
	rules                    *flowtable.Table
	queues, suspects         [numQueues]*byValueFIFO
	priority                 *byValueFIFO
	next, susNext            QueueClass
	credit                   int
	enqueued, emitted        uint64
	prioSrvd, benign, suspct uint64
	maxBacklog               int
}

func newByValueCache(eng *netsim.Engine, cfg Config, sink Sink) *byValueCache {
	c := &byValueCache{eng: eng, cfg: cfg, sink: sink, credit: cfg.BenignWeight}
	for i := range c.queues {
		c.queues[i] = &byValueFIFO{capacity: cfg.QueueCapacity}
		c.suspects[i] = &byValueFIFO{capacity: cfg.QueueCapacity}
	}
	c.priority = &byValueFIFO{capacity: cfg.QueueCapacity}
	return c
}

func (c *byValueCache) queueFor(e *entry) *byValueFIFO {
	cls := QueueDefault
	if !c.cfg.SingleQueue {
		cls = Classify(&e.pkt)
	}
	if e.hint == HintSuspect {
		return c.suspects[cls]
	}
	return c.queues[cls]
}

func (c *byValueCache) enqueue(e entry) {
	q := c.queueFor(&e)
	if c.rules != nil && c.rules.Peek(&e.pkt, e.inPort) != nil {
		q = c.priority
	}
	q.push(e)
	c.maxBacklog = max(c.maxBacklog, c.backlog())
}

func (c *byValueCache) Ingest(origin uint64, pkt netpkt.Packet) {
	inPort := DecodeInPortTOS(pkt.NwTOS)
	pkt.NwTOS = 0
	c.enqueued++
	e := entry{origin: origin, pkt: pkt, inPort: inPort, arrived: c.eng.Now()}
	if c.hinter != nil {
		e.hint = c.hinter.Hint(origin, inPort, &e.pkt)
	}
	c.enqueue(e)
}

func (c *byValueCache) popRR(set *[numQueues]*byValueFIFO, cursor *QueueClass) (entry, bool) {
	for i := 0; i < int(numQueues); i++ {
		q := set[*cursor]
		*cursor = (*cursor + 1) % numQueues
		if e, ok := q.pop(); ok {
			return e, true
		}
	}
	return entry{}, false
}

func (c *byValueCache) emitOne() {
	if e, ok := c.priority.pop(); ok {
		c.prioSrvd++
		c.deliver(e)
		return
	}
	if c.hinter == nil {
		if e, ok := c.popRR(&c.queues, &c.next); ok {
			c.deliver(e)
			return
		}
		if e, ok := c.popRR(&c.suspects, &c.susNext); ok {
			c.deliver(e)
		}
		return
	}
	benignFirst := true
	if c.credit <= 0 {
		benignFirst = false
	}
	if benignFirst {
		if e, ok := c.popRR(&c.queues, &c.next); ok {
			c.credit--
			c.deliver(e)
			return
		}
		if e, ok := c.popRR(&c.suspects, &c.susNext); ok {
			c.deliver(e)
			return
		}
		return
	}
	c.credit = c.cfg.BenignWeight
	if e, ok := c.popRR(&c.suspects, &c.susNext); ok {
		c.deliver(e)
		return
	}
	if e, ok := c.popRR(&c.queues, &c.next); ok {
		c.deliver(e)
	}
}

func (c *byValueCache) deliver(e entry) {
	c.emitted++
	if e.hint == HintSuspect {
		c.suspct++
	} else {
		c.benign++
	}
	queued := c.eng.Now().Sub(e.arrived)
	if c.cfg.ProcessingDelay <= 0 {
		c.sink.CacheEmit(e.origin, e.inPort, e.pkt, queued)
		return
	}
	c.eng.Schedule(c.cfg.ProcessingDelay, func() {
		c.sink.CacheEmit(e.origin, e.inPort, e.pkt, queued+c.cfg.ProcessingDelay)
	})
}

func (c *byValueCache) backlog() int {
	n := c.priority.n
	for i := range c.queues {
		n += c.queues[i].n + c.suspects[i].n
	}
	return n
}

func (c *byValueCache) Stats() Stats {
	s := Stats{Enqueued: c.enqueued, Emitted: c.emitted, PriorityServed: c.prioSrvd,
		BenignServed: c.benign, SuspectServed: c.suspct, MaxBacklog: c.maxBacklog}
	for i := range c.queues {
		s.PerQueue[i] = c.queues[i].n + c.suspects[i].n
		s.Backlog += c.queues[i].n + c.suspects[i].n
		s.SuspectBacklog += c.suspects[i].n
		s.BenignDropped += uint64(c.queues[i].dropped)
		s.SuspectDropped += uint64(c.suspects[i].dropped)
	}
	s.Backlog += c.priority.n
	s.BenignDropped += uint64(c.priority.dropped)
	s.Dropped = s.BenignDropped + s.SuspectDropped
	return s
}

// emission is one delivery as a sink sees it.
type emission struct {
	origin uint64
	inPort uint16
	pkt    netpkt.Packet
	queued time.Duration
}

// recordSink records every delivery.
type recordSink struct{ got []emission }

func (s *recordSink) CacheEmit(origin uint64, inPort uint16, pkt netpkt.Packet, queued time.Duration) {
	s.got = append(s.got, emission{origin, inPort, pkt, queued})
}

// TestSlotQueuesMatchByValueQueues drives the slot-based cache and the
// by-value reference with the same seeded ingest / replay streams —
// small queues that overflow, hint epochs that move packets between the
// benign and suspect sides, a cache-resident priority rule, inline and
// delayed delivery — and requires the identical emission sequence and
// identical Stats (the benign/suspect service split included) after
// every step. The delayed leg ingests into slots freed by pops whose
// emit is still scheduled, so a cache that read the popped slot when
// the emit fires would replay the wrong packet.
func TestSlotQueuesMatchByValueQueues(t *testing.T) {
	for _, delay := range []time.Duration{0, 300 * time.Microsecond} {
		for seed := int64(1); seed <= 12; seed++ {
			t.Run(fmt.Sprintf("delay=%v/seed=%d", delay, seed), func(t *testing.T) {
				survivorDifferential(t, delay, seed)
			})
		}
	}
}

func survivorDifferential(t *testing.T, delay time.Duration, seed int64) {
	r := rand.New(rand.NewSource(seed))
	cfg := Config{QueueCapacity: 3 + r.Intn(14), InitialRatePPS: 500, ProcessingDelay: delay,
		BenignWeight: 1 + r.Intn(4), SingleQueue: seed%5 == 0}
	epoch := 0
	hinter := hinterFunc(func(_ uint64, inPort uint16, pkt *netpkt.Packet) uint8 {
		if (int(inPort)+int(pkt.TpSrc)+epoch)%3 == 0 {
			return HintSuspect
		}
		return HintBenign
	})
	rules := func(eng *netsim.Engine) *flowtable.Table {
		tbl := flowtable.New(0)
		m := openflow.MatchAll()
		m.Wildcards &^= openflow.WildDlType | openflow.WildNwProto | openflow.WildTpDst
		m.DlType, m.NwProto, m.TpDst = netpkt.EtherTypeIPv4, netpkt.ProtoTCP, 80
		if _, err := tbl.Apply(openflow.FlowMod{Match: m, Command: openflow.FlowAdd, Priority: 10,
			Actions: []openflow.Action{openflow.Output(2)}}, eng.Now()); err != nil {
			t.Fatal(err)
		}
		return tbl
	}

	slotEng, refEng := netsim.NewEngine(), netsim.NewEngine()
	slotSink, refSink := &recordSink{}, &recordSink{}
	c := New(slotEng, cfg, slotSink)
	cfg.BenignWeight = c.cfg.BenignWeight
	ref := newByValueCache(refEng, cfg, refSink)
	c.SetHinter(hinter)
	ref.hinter = hinter
	if seed%3 == 0 {
		c.UseRuleTable(rules(slotEng))
		ref.rules = rules(refEng)
	}
	c.Start()
	refEng.NewTicker(time.Duration(float64(time.Second)/cfg.InitialRatePPS), ref.emitOne)

	protos := []uint8{netpkt.ProtoTCP, netpkt.ProtoUDP, netpkt.ProtoICMP, 47}
	checked := 0
	for step := 0; step < 3000; step++ {
		switch op := r.Intn(10); {
		case op < 6:
			p := netpkt.Packet{EthType: netpkt.EtherTypeIPv4, NwProto: protos[r.Intn(len(protos))],
				NwSrc: netpkt.IPv4(r.Uint32()), TpSrc: uint16(r.Intn(1 << 16)), TpDst: uint16(78 + r.Intn(4))}
			if r.Intn(10) == 0 {
				p = netpkt.Packet{EthType: netpkt.EtherTypeARP, TpSrc: uint16(step)}
			}
			p.NwTOS = EncodeInPortTOS(uint16(r.Intn(8)))
			origin := 1 + uint64(r.Intn(2))
			c.Ingest(origin, p)
			ref.Ingest(origin, p)
		case op < 9:
			d := time.Duration(r.Intn(3000)) * time.Microsecond
			slotEng.RunFor(d)
			refEng.RunFor(d)
		default:
			epoch++
		}
		if len(slotSink.got) != len(refSink.got) {
			t.Fatalf("step %d: %d emissions, reference %d", step, len(slotSink.got), len(refSink.got))
		}
		for i := checked; i < len(slotSink.got); i++ {
			if !reflect.DeepEqual(slotSink.got[i], refSink.got[i]) {
				t.Fatalf("step %d: emission %d = %+v, reference %+v", step, i, slotSink.got[i], refSink.got[i])
			}
		}
		if got, want := c.Stats(), ref.Stats(); got != want {
			t.Fatalf("step %d: stats %+v, reference %+v", step, got, want)
		}
		checked = len(slotSink.got)
	}
	if st := ref.Stats(); st.Dropped == 0 || st.SuspectServed == 0 || st.Emitted == 0 ||
		(seed%3 == 0 && st.PriorityServed == 0) {
		t.Fatalf("the stream no longer exercises every path: %+v", st)
	}
}
