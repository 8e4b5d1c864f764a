package dpcache

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"floodguard/internal/netpkt"
	"floodguard/internal/netsim"
)

// TestFIFOPropertyOrderPreserved: for any push sequence, pops come out in
// arrival order restricted to the survivors (the newest capacity
// entries).
func TestFIFOPropertyOrderPreserved(t *testing.T) {
	f := func(seq []uint16, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		q := newFIFO(capacity)
		for i, v := range seq {
			*q.slot() = entry{inPort: v, origin: uint64(i)}
		}
		// Expected survivors: the last min(len, capacity) entries.
		start := 0
		if len(seq) > capacity {
			start = len(seq) - capacity
		}
		want := seq[start:]
		if q.len() != len(want) {
			return false
		}
		for _, w := range want {
			if e := q.pop(); e == nil || e.inPort != w {
				return false
			}
		}
		return q.pop() == nil // drained
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestFIFOPropertyDropAccounting: dropped + remaining == pushed.
func TestFIFOPropertyDropAccounting(t *testing.T) {
	f := func(n uint16, capRaw uint8) bool {
		capacity := int(capRaw%32) + 1
		q := newFIFO(capacity)
		for i := 0; i < int(n%512); i++ {
			*q.slot() = entry{}
		}
		return int(q.dropped.Value())+q.len() == int(n%512)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFIFOGrowsOnDemand holds the growing ring to a plain-slice model of a
// bounded drop-oldest queue: growth with the head wrapped, and a capacity
// (40) the doubling does not land on, where drop-oldest must begin
// exactly and not one push sooner.
func TestFIFOGrowsOnDemand(t *testing.T) {
	const capacity = 40
	check := func(q *fifo, model []uint64, drops int) {
		t.Helper()
		if q.len() != len(model) || int(q.dropped.Value()) != drops || len(q.buf) > capacity {
			t.Fatalf("len %d dropped %d ring %d, want len %d dropped %d ring <= %d",
				q.len(), q.dropped.Value(), len(q.buf), len(model), drops, capacity)
		}
		for i, want := range model {
			if got := q.buf[(q.head+i)%len(q.buf)].origin; got != want {
				t.Fatalf("slot %d holds %d, want %d (model %v)", i, got, want, model)
			}
		}
	}

	// Fill the first ring, pop half and refill, so the head sits mid-ring
	// when the next push has to grow it.
	q := newFIFO(capacity)
	var model []uint64
	id := uint64(0)
	push := func() {
		id++
		*q.slot() = entry{origin: id}
		model = append(model, id)
	}
	for len(q.buf) == 0 || q.len() < len(q.buf) {
		push()
	}
	first := len(q.buf)
	for i := 0; i < first/2; i++ {
		q.pop()
		model = model[1:]
	}
	for q.len() < first {
		push()
	}
	if q.head == 0 {
		t.Fatal("test setup: head did not wrap")
	}
	push() // grows across the wrapped head
	if len(q.buf) <= first {
		t.Fatalf("ring stayed at %d with %d queued", len(q.buf), q.len())
	}
	check(q, model, 0)

	// Up to capacity nothing is lost; the push after that drops exactly
	// the oldest.
	for q.len() < capacity {
		push()
		check(q, model, 0)
	}
	push()
	model = model[1:]
	check(q, model, 1)

	// Random walk against the model.
	r := rand.New(rand.NewSource(40))
	q, model, id = newFIFO(capacity), nil, 0
	drops := 0
	for step := 0; step < 5000; step++ {
		switch op := r.Intn(10); {
		case op < 6:
			push()
			if len(model) > capacity {
				model, drops = model[1:], drops+1
			}
		default:
			e := q.pop()
			if (e != nil) != (len(model) > 0) || (e != nil && e.origin != model[0]) {
				t.Fatalf("pop = %+v, model %v", e, model)
			}
			if e != nil {
				model = model[1:]
			}
		}
		check(q, model, drops)
	}
	if drops == 0 {
		t.Fatal("the random walk never reached capacity")
	}
}

// TestCachePropertyConservation: enqueued == emitted + dropped + backlog
// after any interleaving of ingests and scheduler runs.
func TestCachePropertyConservation(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 50; trial++ {
		eng := netsim.NewEngine()
		emitted := 0
		c := New(eng, Config{
			QueueCapacity:  r.Intn(32) + 1,
			InitialRatePPS: float64(r.Intn(500) + 1),
		}, sinkCounter{&emitted})
		c.Start()
		gen := netpkt.NewSpoofGen(int64(trial), netpkt.FloodMixed, 16)
		for step := 0; step < 200; step++ {
			switch r.Intn(3) {
			case 0:
				p := gen.Next()
				p.NwTOS = EncodeInPortTOS(uint16(r.Intn(8)))
				c.Ingest(0, p)
			case 1:
				eng.RunFor(time.Duration(r.Intn(20)) * time.Millisecond)
			default:
				c.SetRate(float64(r.Intn(1000)))
			}
		}
		c.Stop()
		eng.RunFor(time.Second) // settle in-flight deliveries
		st := c.Stats()
		if st.Enqueued != st.Emitted+st.Dropped+uint64(st.Backlog) {
			t.Fatalf("trial %d: conservation violated: %d != %d+%d+%d",
				trial, st.Enqueued, st.Emitted, st.Dropped, st.Backlog)
		}
	}
}

type sinkCounter struct{ n *int }

func (s sinkCounter) CacheEmit(uint64, uint16, netpkt.Packet, time.Duration) { *s.n++ }

// TestRoundRobinPropertyBoundedWait: with k non-empty queues, any head
// packet is served within k scheduler ticks.
func TestRoundRobinPropertyBoundedWait(t *testing.T) {
	protos := []uint8{netpkt.ProtoTCP, netpkt.ProtoUDP, netpkt.ProtoICMP, 47}
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 100; trial++ {
		eng := netsim.NewEngine()
		var served []uint8
		c := New(eng, Config{QueueCapacity: 64, InitialRatePPS: 1000},
			sinkProto{&served})
		// Load a random non-empty subset of queues.
		loaded := map[uint8]bool{}
		for _, pr := range protos {
			if r.Intn(2) == 0 {
				continue
			}
			loaded[pr] = true
			for i := 0; i < r.Intn(5)+1; i++ {
				c.Ingest(0, netpkt.Packet{
					EthType: netpkt.EtherTypeIPv4, NwProto: pr,
					NwTOS: EncodeInPortTOS(1), TpDst: uint16(i),
				})
			}
		}
		if len(loaded) == 0 {
			continue
		}
		c.Start()
		eng.RunFor(time.Duration(len(loaded)+1) * time.Millisecond) // k+1 ticks
		c.Stop()
		seen := map[uint8]bool{}
		for _, pr := range served {
			seen[pr] = true
		}
		for pr := range loaded {
			if !seen[pr] {
				t.Fatalf("trial %d: queue %d not served within %d ticks (served %v)",
					trial, pr, len(loaded)+1, served)
			}
		}
	}
}

type sinkProto struct{ protos *[]uint8 }

func (s sinkProto) CacheEmit(_ uint64, _ uint16, pkt netpkt.Packet, _ time.Duration) {
	*s.protos = append(*s.protos, pkt.NwProto)
}
