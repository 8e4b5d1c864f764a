// Package journal is the decision-forensics layer: a sharded,
// lock-free structured event journal that records *why* the pipeline
// did what it did — FSM transitions with their triggering scores,
// attrib blame/heal verdicts with the EWMA/CUSUM evidence that fired
// them, selective migrate/unmigrate actions, dpcache verdict flips and
// backlog watermarks, chaos faults — cheap enough to stay on at
// million-pps rates.
//
// Architecture mirrors the rtc engine it instruments: every producer
// goroutine (each rtc shard, the cache stage, the attribution roll,
// the controller/harness) owns a private Recorder backed by an SPSC
// ring from internal/spsc, so the hot-path append is a couple of
// atomic loads plus a ring push — no locks, no allocations. A single
// consumer (the engine's cache stage while running, the harness after
// shutdown) drains every ring into per-recorder bounded retention
// buffers: the flight recorder. Because retention is per-recorder
// FIFO, the set of retained events is independent of *when* the
// consumer drained, which is what makes same-seed dumps byte-identical.
//
// Total order: every event is stamped with the producer's private
// monotonic sequence number and the current window number (a shared
// atomic the harness/engine advances at window barriers). Events merge
// into one timeline ordered by (Window, Rec, Seq): within a window,
// events from different recorders are causally concurrent, and the
// (Rec, Seq) tiebreak is the deterministic convention that makes the
// merged order reproducible.
package journal

import (
	"sort"
	"sync/atomic"

	"floodguard/internal/spsc"
)

// Kind classifies a decision event. The set is closed and small on
// purpose: every kind maps onto one concrete decision or item of
// evidence in the pipeline, and the A/B/C payload fields are
// documented per kind (see the comments below and DESIGN.md §14).
type Kind uint8

const (
	KindNone Kind = iota

	// KindFSM: guard FSM transition. Code = to-state, Aux =
	// from-state (core.FSMState numbering), A = packet_in rate EWMA
	// (pps), B = cache backlog, C = migration rate (pps).
	KindFSM

	// KindSuspect: a port's CUSUM is accumulating but has not crossed
	// the blame threshold — the pre-blame evidence chain. A = window
	// rate (pps), B = EWMA baseline, C = cusum/threshold fraction.
	KindSuspect

	// KindBlame: CUSUM crossed the threshold; the port is now blamed.
	// A = window rate (pps), B = EWMA baseline, C = excursion
	// (rate - ewma - drift).
	KindBlame

	// KindHeal: the port completed its calm-window run and is
	// un-blamed. A = calm windows observed, B = last rate seen while
	// blamed-and-hot, C = EWMA baseline at heal time.
	KindHeal

	// KindMigrate / KindUnmigrate: selective per-port migration
	// actions taken on the data path. No payload beyond DPID/Port.
	KindMigrate
	KindUnmigrate

	// KindVerdictFlip: the cache's replay hint for a (dpid, port)
	// changed class. Code = new hint, A = old hint
	// (dpcache.HintNone/Benign/Suspect numbering).
	KindVerdictFlip

	// KindWatermark: the cache backlog reached a new high-watermark
	// band (power-of-two sampled). A = backlog at the watermark.
	KindWatermark

	// KindChaos: injected fault. Code: 1 = outage start, 2 = outage
	// end, 3 = flow churn. A = payload (churned flows for churn).
	KindChaos

	// KindShardFlush: an rtc shard flushed its window-local state at
	// a window barrier. Port = shard id, A = packets processed
	// (cumulative), B = table misses (cumulative), C = cache-ring
	// drops (cumulative).
	KindShardFlush

	// KindRingDrop: the shard→cache ring rejected a packet
	// (power-of-two sampled: recorded at drop counts 1, 2, 4, 8...).
	// A = cumulative drop count at the sample.
	KindRingDrop

	// KindViolation: a soak invariant tripped. A = violation index
	// within the run.
	KindViolation

	// KindSLO: an SLO objective changed health state. Code = new
	// state (0 ok / 1 warn / 2 page), Aux = objective index (meta
	// line maps indices to names), A = short-window burn rate,
	// B = long-window burn rate.
	KindSLO

	// KindTCPCookie: the TCP tier answered SYNs with cookie SYN-ACKs on
	// a shard; sampled on power-of-two counts. Port = ingress port,
	// A = cumulative SYN-ACKs answered on that shard.
	KindTCPCookie

	// KindTCPEvidence: per-source handshake evidence from attribution's
	// window roll — a source whose SYNs are not turning into valid
	// ACKs. DPID = source IPv4 (host order), Port = last ingress port,
	// A = SYNs, B = completions, C = cookie failures + malformed, all
	// cumulative at the roll.
	KindTCPEvidence
)

var kindNames = [...]string{
	KindNone:        "none",
	KindFSM:         "fsm",
	KindSuspect:     "suspect",
	KindBlame:       "blame",
	KindHeal:        "heal",
	KindMigrate:     "migrate",
	KindUnmigrate:   "unmigrate",
	KindVerdictFlip: "verdict_flip",
	KindWatermark:   "watermark",
	KindChaos:       "chaos",
	KindShardFlush:  "shard_flush",
	KindRingDrop:    "ring_drop",
	KindViolation:   "violation",
	KindSLO:         "slo",
	KindTCPCookie:   "tcp_cookie",
	KindTCPEvidence: "tcp_evidence",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// ParseKind inverts Kind.String; ok is false for unknown names.
func ParseKind(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return KindNone, false
}

// Event is one journal entry. It is a fixed-size POD so recording is
// a struct copy into a preallocated ring — no pointers, no interface
// boxing, nothing for the GC to trace.
type Event struct {
	Seq    uint64  // per-recorder monotonic sequence (from 1)
	Window int32   // window number at record time
	Rec    uint8   // recorder id (shard / cache / attrib / control)
	Kind   Kind    // what happened
	Code   uint8   // kind-specific small code (state, hint, fault)
	Aux    uint8   // kind-specific second code (from-state, obj index)
	Port   uint16  // subject port (or shard id for shard_flush)
	DPID   uint64  // subject datapath
	A      float64 // kind-specific payload, see Kind docs
	B      float64
	C      float64
}

// Journal owns the recorder set and the flight-recorder retention.
// All methods on a nil *Journal are safe no-ops (returning nil /
// zero), so callers can thread an optional journal without branching.
type Journal struct {
	recs    []*Recorder
	retain  []retainRing
	window  atomic.Int32
	shards  int     // recorder slots before the cache, attrib and control ones
	scratch []Event // consumer-owned drain batch buffer
}

const (
	// ringCapacity is each recorder's SPSC ring size.
	ringCapacity = 2048
	// retainDepth is the flight-recorder depth: how many events each
	// recorder keeps, FIFO, after draining.
	retainDepth = 8192
)

// ForEngine builds a journal with the rtc-engine recorder layout: slots
// 0..shards-1 for the shard goroutines, then one slot each for the
// cache stage, the attribution roll, and the controller/harness.
// Accessors below address the slots by role; each returned *Recorder
// must only be used from a single goroutine (SPSC contract).
func ForEngine(shards int) *Journal {
	return newJournal(shards, ringCapacity, retainDepth)
}

// newJournal builds the ForEngine layout with ringCap-slot rings (rounded
// up to a power of two) and retain events of retention per recorder.
func newJournal(shards, ringCap, retain int) *Journal {
	shards = max(shards, 0)
	j := &Journal{
		recs:    make([]*Recorder, shards+3),
		retain:  make([]retainRing, shards+3),
		shards:  shards,
		scratch: make([]Event, 256),
	}
	for i := range j.recs {
		j.recs[i] = &Recorder{
			id:   uint8(i),
			win:  &j.window,
			ring: spsc.New[Event](ringCap),
		}
		j.retain[i].buf = make([]Event, retain)
	}
	return j
}

// ShardRec returns shard i's recorder, or nil when j is nil or i is out
// of range.
func (j *Journal) ShardRec(i int) *Recorder {
	if j == nil || i < 0 || i >= j.shards {
		return nil
	}
	return j.recs[i]
}

func (j *Journal) CacheRec() *Recorder {
	if j == nil {
		return nil
	}
	return j.recs[j.shards]
}

func (j *Journal) AttribRec() *Recorder {
	if j == nil {
		return nil
	}
	return j.recs[j.shards+1]
}

func (j *Journal) ControlRec() *Recorder {
	if j == nil {
		return nil
	}
	return j.recs[j.shards+2]
}

// SetWindow stamps subsequent events with window w. The soak harness
// calls it at each virtual-time barrier; the live engine calls
// AdvanceWindow at attribution rolls.
func (j *Journal) SetWindow(w int) {
	if j == nil {
		return
	}
	j.window.Store(int32(w))
}

// AdvanceWindow increments the window stamp by one.
func (j *Journal) AdvanceWindow() {
	if j == nil {
		return
	}
	j.window.Add(1)
}

// Drain moves pending events from every recorder ring into the
// per-recorder retention buffers and reports how many moved. It must
// be called from a single consumer goroutine at a time; the pipeline
// calls it from the cache stage while running and the harness calls it
// after shutdown (a sequential handoff, which the SPSC contract
// permits).
func (j *Journal) Drain() int {
	if j == nil {
		return 0
	}
	total := 0
	for i, r := range j.recs {
		for {
			n := r.ring.PopBatch(j.scratch)
			if n == 0 {
				break
			}
			rr := &j.retain[i]
			for _, ev := range j.scratch[:n] {
				rr.add(ev)
			}
			total += n
		}
	}
	return total
}

// Dropped reports events lost to ring overflow across all recorders.
// Nonzero drops mean the consumer fell behind; the dump records the
// count so a truncated timeline is never mistaken for a quiet one.
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	var d uint64
	for _, r := range j.recs {
		d += r.drops.Load()
	}
	return d
}

// Events returns the retained flight-recorder contents merged into
// the canonical total order: (Window, Rec, Seq) ascending. Call after
// a final Drain; the slice is freshly allocated.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	n := 0
	for i := range j.retain {
		n += j.retain[i].n
	}
	out := make([]Event, 0, n)
	for i := range j.retain {
		out = j.retain[i].appendTo(out)
	}
	sort.Slice(out, func(a, b int) bool {
		x, y := &out[a], &out[b]
		if x.Window != y.Window {
			return x.Window < y.Window
		}
		if x.Rec != y.Rec {
			return x.Rec < y.Rec
		}
		return x.Seq < y.Seq
	})
	return out
}

// Recorder is one producer slot. Record is safe on a nil receiver so
// instrumented code can keep an unconditional call on its hot path.
type Recorder struct {
	id    uint8
	win   *atomic.Int32
	ring  *spsc.Ring[Event]
	seq   uint64 // producer-local, no atomics needed
	drops atomic.Uint64
}

// Record appends one event. It never blocks and never allocates: on
// ring overflow the event is counted as dropped and the sequence
// number still advances, so a gap in Seq is itself evidence of loss.
func (r *Recorder) Record(k Kind, code, aux uint8, dpid uint64, port uint16, a, b, c float64) {
	if r == nil {
		return
	}
	r.seq++
	ev := Event{
		Seq:    r.seq,
		Window: r.win.Load(),
		Rec:    r.id,
		Kind:   k,
		Code:   code,
		Aux:    aux,
		Port:   port,
		DPID:   dpid,
		A:      a,
		B:      b,
		C:      c,
	}
	if !r.ring.Push(ev) {
		r.drops.Add(1)
	}
}

// retainRing is a fixed-capacity FIFO: when full, the oldest event is
// overwritten. Per-recorder FIFO retention makes the retained set a
// pure function of the recorded stream, independent of drain timing.
type retainRing struct {
	buf   []Event
	start int
	n     int
}

func (rr *retainRing) add(ev Event) {
	if rr.n < len(rr.buf) {
		rr.buf[(rr.start+rr.n)%len(rr.buf)] = ev
		rr.n++
		return
	}
	rr.buf[rr.start] = ev
	rr.start = (rr.start + 1) % len(rr.buf)
}

func (rr *retainRing) appendTo(dst []Event) []Event {
	for i := 0; i < rr.n; i++ {
		dst = append(dst, rr.buf[(rr.start+i)%len(rr.buf)])
	}
	return dst
}
