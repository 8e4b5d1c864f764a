package dpcache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"floodguard/internal/netpkt"
	"floodguard/internal/netsim"
)

// alwaysOn replays a cache the way it did before its ticker parked: a
// copy of emitOne and of SetRate/arm as they were, driving a ticker that
// fires every interval whether or not a packet waits. The cache is never
// Started, so its own ticker stays nil and its Ingest resumes nothing.
type alwaysOn struct {
	c      *Cache
	rate   float64
	ticker *netsim.Ticker
}

func (a *alwaysOn) setRate(pps float64) {
	if pps == a.rate && a.ticker != nil {
		return
	}
	a.rate = pps
	if a.ticker != nil {
		a.ticker.Stop()
		a.ticker = nil
	}
	if pps <= 0 {
		return
	}
	interval := time.Duration(float64(time.Second) / pps)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	a.ticker = a.c.eng.NewTicker(interval, a.emitOne)
}

func (a *alwaysOn) emitOne() {
	c := a.c
	if e := c.priority.pop(); e != nil {
		c.prioSrvd.Inc()
		c.deliver(e)
		return
	}
	if c.credit > 0 {
		if e := c.popRR(&c.queues, &c.next); e != nil {
			c.credit--
			c.deliver(e)
		} else if e := c.popRR(&c.suspects, &c.susNext); e != nil {
			c.deliver(e)
		}
		return
	}
	c.credit = c.cfg.BenignWeight
	if e := c.popRR(&c.suspects, &c.susNext); e != nil {
		c.deliver(e)
	} else if e := c.popRR(&c.queues, &c.next); e != nil {
		c.deliver(e)
	}
}

// timedSink records every delivery with the virtual instant it reached
// the sink.
type timedSink struct {
	eng *netsim.Engine
	got []timedEmission
}

type timedEmission struct {
	emission
	at time.Duration
}

func (s *timedSink) CacheEmit(origin uint64, inPort uint16, pkt netpkt.Packet, queued time.Duration) {
	s.got = append(s.got, timedEmission{emission{origin, inPort, pkt, queued}, s.eng.Elapsed()})
}

// TestParkedReplayMatchesAlwaysOn drives the parking cache and the
// always-on copy with the same seeded schedules — bursts of ingest
// between long idle gaps, ingest exactly on a replay grid instant,
// SetRate(0) and SetRate(r) while parked, the last benign delivery
// spending the credit right before the queues run dry, the hinter on
// and off, inline and delayed delivery — ingesting only between
// RunUntil calls, as the rtc engine does. The emitted (origin, inPort,
// pkt, queued) sequence and the instant of each emission must match.
func TestParkedReplayMatchesAlwaysOn(t *testing.T) {
	for _, delay := range []time.Duration{0, 300 * time.Microsecond} {
		for seed := int64(1); seed <= 12; seed++ {
			t.Run(fmt.Sprintf("delay=%v/seed=%d", delay, seed), func(t *testing.T) {
				parkDifferential(t, delay, seed, seed%2 == 0)
			})
		}
	}
}

func parkDifferential(t *testing.T, delay time.Duration, seed int64, hinted bool) {
	r := rand.New(rand.NewSource(seed))
	cfg := Config{QueueCapacity: 4 + r.Intn(12), InitialRatePPS: 1000, ProcessingDelay: delay,
		BenignWeight: 1 + r.Intn(3)}
	parkEng, refEng := netsim.NewEngine(), netsim.NewEngine()
	parkSink, refSink := &timedSink{eng: parkEng}, &timedSink{eng: refEng}
	c := New(parkEng, cfg, parkSink)
	ref := &alwaysOn{c: New(refEng, cfg, refSink)}
	if hinted {
		h := hinterFunc(func(_ uint64, inPort uint16, pkt *netpkt.Packet) uint8 {
			if (int(inPort)+int(pkt.TpSrc))%3 == 0 {
				return HintSuspect
			}
			return HintBenign
		})
		c.SetHinter(h)
		ref.c.SetHinter(h)
	}
	c.Start()
	ref.setRate(cfg.InitialRatePPS)
	// The replay grid: the instant the current ticker was armed and its
	// interval, for ingest that lands exactly on a grid instant.
	gridOrigin, interval := time.Duration(0), time.Second/1000
	setRate := func(pps float64) {
		if pps != c.Rate() && pps > 0 {
			gridOrigin, interval = parkEng.Elapsed(), time.Duration(float64(time.Second)/pps)
		}
		c.SetRate(pps)
		ref.setRate(pps)
	}

	protos := []uint8{netpkt.ProtoTCP, netpkt.ProtoUDP, netpkt.ProtoICMP, 47}
	var creditSpent, parkedSetRate, onGrid int
	checked := 0
	for step := 0; step < 1500; step++ {
		now := parkEng.Elapsed()
		var next time.Duration
		switch r.Intn(5) {
		case 0: // a long idle gap
			next = now + time.Duration(20+r.Intn(500))*time.Millisecond
		case 1: // exactly on a later grid instant
			next = gridOrigin + ((now-gridOrigin)/interval+1+time.Duration(r.Intn(3)))*interval
		default:
			next = now + time.Duration(r.Intn(4000))*time.Microsecond
		}
		parkEng.RunUntil(netsim.Epoch.Add(next))
		refEng.RunUntil(netsim.Epoch.Add(next))
		if c.Backlog() == 0 && c.credit == 0 {
			creditSpent++
		}
		switch op := r.Intn(12); {
		case op < 9:
			if c.Backlog() == 0 && c.Rate() > 0 && (next-gridOrigin)%interval == 0 {
				onGrid++
			}
			for n := 1 + r.Intn(6); n > 0; n-- {
				p := netpkt.Packet{EthType: netpkt.EtherTypeIPv4, NwProto: protos[r.Intn(len(protos))],
					NwSrc: netpkt.IPv4(r.Uint32()), TpSrc: uint16(r.Intn(1 << 16)), TpDst: uint16(r.Intn(1 << 16))}
				p.NwTOS = EncodeInPortTOS(uint16(r.Intn(8)))
				origin := 1 + uint64(r.Intn(2))
				c.Ingest(origin, p)
				ref.c.Ingest(origin, p)
			}
		case op < 10:
			if c.Backlog() == 0 {
				parkedSetRate++
			}
			setRate(0)
		default:
			if c.Backlog() == 0 {
				parkedSetRate++
			}
			setRate([]float64{1000, 700, 2500}[r.Intn(3)])
		}
		if len(parkSink.got) != len(refSink.got) {
			t.Fatalf("step %d at %v: %d emissions, always-on %d", step, next, len(parkSink.got), len(refSink.got))
		}
		for i := checked; i < len(parkSink.got); i++ {
			if !reflect.DeepEqual(parkSink.got[i], refSink.got[i]) {
				t.Fatalf("step %d: emission %d = %+v, always-on %+v", step, i, parkSink.got[i], refSink.got[i])
			}
		}
		checked = len(parkSink.got)
	}
	if checked < 1000 || onGrid == 0 || parkedSetRate == 0 || (hinted && creditSpent == 0) {
		t.Fatalf("the schedule no longer exercises every case: %d emissions, %d ingests on a grid instant, "+
			"%d rate changes with empty queues, %d dry queues with the credit spent", checked, onGrid, parkedSetRate, creditSpent)
	}
}

// TestParkedReplayEventsBoundedByEmitted is the count witness for the
// parked ticker: over ingests separated by idle gaps of up to hundreds
// of replay intervals, the replay engine fires at most one event per
// packet emitted plus one per resumption (Start counts as one, and a
// resumption needs an ingest into empty queues). An idle second costs
// nothing; the always-on ticker fired once per interval.
func TestParkedReplayEventsBoundedByEmitted(t *testing.T) {
	eng := netsim.NewEngine()
	c := New(eng, Config{QueueCapacity: 64, InitialRatePPS: 10000}, &nullSink{})
	c.Start()
	r := rand.New(rand.NewSource(17))
	fired, resumptions := 0, 1
	for i := 0; i < 2000; i++ {
		if c.Backlog() == 0 {
			resumptions++
		}
		c.Ingest(1, tagged(netpkt.ProtoUDP, uint16(1+i%8), uint16(i)))
		if r.Intn(4) == 0 {
			fired += eng.RunFor(time.Duration(r.Intn(50)) * time.Millisecond)
		}
	}
	fired += eng.RunFor(time.Second)
	emitted := int(c.Stats().Emitted)
	if emitted != 2000 {
		t.Fatalf("emitted %d of 2000", emitted)
	}
	if fired > emitted+resumptions {
		t.Errorf("%d events fired for %d emitted and %d resumptions", fired, emitted, resumptions)
	}
	if ticks := int(eng.Elapsed() / (time.Second / 10000)); fired*4 > ticks {
		t.Errorf("%d events fired over %d replay intervals: the witness no longer separates a parked ticker", fired, ticks)
	}
}
