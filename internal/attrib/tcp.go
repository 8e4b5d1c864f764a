package attrib

import (
	"floodguard/internal/journal"
	"floodguard/internal/netpkt"
	"floodguard/internal/sketch"
	"floodguard/internal/tcpguard"
)

// TCP handshake evidence: the tcpguard tier reports per-source verdicts
// (SYN answered, completion, cookie failure, malformed segment) through
// the shard observers; this file accumulates them into a bounded
// per-source table and turns "4k SYNs, 0 valid ACKs" into a suspect
// verdict and a journal evidence trail. The table decays on the same
// cadence as the frequency sketches so offenders heal once they stop.

// tcpEvidence is one source's cumulative handshake record.
type tcpEvidence struct {
	syns      uint64
	acks      uint64
	fails     uint64
	malformed uint64
	port      uint16 // last ingress port, for the journal trail
	offender  bool   // judged at Roll
	journaled bool   // evidence event emitted since last state change
}

// TCPEvidence is the exported view of one source's handshake record.
type TCPEvidence struct {
	Syns        uint64
	Completions uint64
	CookieFails uint64
	Malformed   uint64
	Offender    bool
}

// tcpEvidenceJournalCap bounds how many offender evidence events one
// Roll may emit (worst offenders first), keeping the journal's FIFO
// retention useful under rotating-source floods.
const tcpEvidenceJournalCap = 8

// add folds one shard delta into a record; the delta's port, the later
// one in flush order, wins.
func (ev *tcpEvidence) add(d tcpDelta) {
	ev.syns += uint64(d.syns)
	ev.acks += uint64(d.acks)
	ev.fails += uint64(d.fails)
	ev.malformed += uint64(d.malformed)
	ev.port = d.port
}

// tcpDeltas is one shard's handshake evidence between two hand-overs,
// held for at most cap sources however many the shard sees. Below the
// bound every source is held with its exact counts. Once the table is
// full, a source not held is counted in the gate, a count-min sketch,
// and is admitted only when its estimate there exceeds the lightest held
// source's verdict count by more than the gate's mean cell. The sketch
// never underestimates, so a source whose verdicts in the interval
// outnumber the lightest held source's by that margin is admitted, while
// one-verdict spoofs read about the mean cell however fast they come and
// mostly stay out. An admitted source takes the lightest slot (the
// oldest among equals) and holds only its own verdicts from then on: it
// reports nothing it did not send. The evicted source's verdicts rejoin
// the gate, so its estimate stays an upper bound should it return. Owner
// goroutine only while live; Roll's while handed over.
type tcpDeltas struct {
	cap   int
	seed  uint64           // the gate's
	idx   map[uint64]int32 // src -> slots index
	slots []tcpSlot
	// heap orders the slots lightest first. It is built when the table
	// is full and a source not held arrives, and kept until the reset.
	heap    []int32
	gate    *sketch.CountMinLocal // made at the first admission test
	seq     uint32                // next admission number
	dropped uint64                // verdicts turned away or evicted
}

// tcpSlot is one held source. n counts its verdicts since admission;
// Roll zeroes it once the slot's delta is folded in.
type tcpSlot struct {
	src uint64
	d   tcpDelta
	n   uint32
	seq uint32 // admission number: the older of two equals goes first
	at  int32  // position in heap
}

func newTCPDeltas(capacity int, seed uint64) *tcpDeltas {
	return &tcpDeltas{cap: capacity, seed: seed, idx: make(map[uint64]int32, 16)}
}

// add records one verdict of src.
func (b *tcpDeltas) add(src uint64, d tcpDelta) {
	if i, ok := b.idx[src]; ok {
		s := &b.slots[i]
		s.d.syns += d.syns
		s.d.acks += d.acks
		s.d.fails += d.fails
		s.d.malformed += d.malformed
		s.d.port = d.port
		s.n++
		if len(b.heap) > 0 {
			b.down(int(s.at))
		}
		return
	}
	if len(b.slots) < b.cap {
		b.idx[src] = int32(len(b.slots))
		b.slots = append(b.slots, tcpSlot{src: src, d: d, n: 1, seq: b.seq})
		b.seq++
		return
	}
	if len(b.heap) == 0 {
		b.buildHeap()
	}
	if b.gate == nil {
		b.gate = sketch.NewCountMinLocal(2, 2*b.cap, b.seed)
	}
	e := b.gate.Update(src, 1)
	v := &b.slots[b.heap[0]]
	if e <= uint64(v.n)+b.gate.MeanCell() {
		b.dropped++
		return
	}
	b.dropped += uint64(v.n)
	b.gate.Update(v.src, uint64(v.n))
	delete(b.idx, v.src)
	b.idx[src] = b.heap[0]
	*v = tcpSlot{src: src, d: d, n: 1, seq: b.seq}
	b.seq++
	b.down(0)
}

// lighter orders slots i and j for eviction: fewer verdicts first, then
// the earlier admission.
func (b *tcpDeltas) lighter(i, j int32) bool {
	x, y := &b.slots[i], &b.slots[j]
	return x.n < y.n || x.n == y.n && x.seq < y.seq
}

func (b *tcpDeltas) buildHeap() {
	for i := range b.slots {
		b.heap = append(b.heap, int32(i))
		b.slots[i].at = int32(i)
	}
	for p := len(b.heap)/2 - 1; p >= 0; p-- {
		b.down(p)
	}
}

// down sifts the slot at heap position p below every lighter one.
func (b *tcpDeltas) down(p int) {
	h := b.heap
	for {
		c := 2*p + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && b.lighter(h[c+1], h[c]) {
			c++
		}
		if !b.lighter(h[c], h[p]) {
			break
		}
		h[p], h[c] = h[c], h[p]
		b.slots[h[p]].at = int32(p)
		p = c
	}
	b.slots[h[p]].at = int32(p)
}

// reset empties the table for its next interval, keeping its memory.
func (b *tcpDeltas) reset() {
	clear(b.idx)
	b.slots, b.heap = b.slots[:0], b.heap[:0]
	if b.gate != nil {
		b.gate.Reset()
	}
	b.seq, b.dropped = 0, 0
}

// handOverTCP queues a shard's delta table for the next Roll and returns
// an empty one for the shard to fill next: a table Roll emptied and
// returned, or a new one only while none is free. O(1), under tcpMu only.
func (a *Attributor) handOverTCP(d *tcpDeltas) *tcpDeltas {
	a.tcpMu.Lock()
	a.tcpPend = append(a.tcpPend, d)
	var next *tcpDeltas
	if n := len(a.tcpFree); n > 0 {
		next = a.tcpFree[n-1]
		a.tcpFree = a.tcpFree[:n-1]
	}
	a.tcpMu.Unlock()
	if next == nil {
		next = newTCPDeltas(a.cfg.TCPMaxSources, a.cfg.Seed)
	}
	return next
}

// tcpRank is one source's place in a Roll's ranking: SYN volume first,
// the source address to make the order total.
type tcpRank struct {
	src, syns uint64
	ev        int32 // the source's record in Roll's evidence scratch
	// eligible marks a source this Roll journals if the cap allows: an
	// offender whose evidence is not on record yet.
	eligible bool
}

func (r tcpRank) before(o tcpRank) bool {
	return r.syns > o.syns || r.syns == o.syns && r.src < o.src
}

// firstEligible returns, in rank order, the first len(top) entries of
// rank that are eligible for the journal, using top as the buffer. One
// pass with an insertion into a buffer of tcpEvidenceJournalCap.
func firstEligible(rank []tcpRank, top []tcpRank) []tcpRank {
	n := 0
	for _, r := range rank {
		if !r.eligible || n == len(top) && !r.before(top[n-1]) {
			continue
		}
		if n < len(top) {
			n++
		}
		i := n - 1
		for ; i > 0 && r.before(top[i-1]); i-- {
			top[i] = top[i-1]
		}
		top[i] = r
	}
	return top[:n]
}

// selectTopTCP reorders rank so that its first k elements are the k that
// rank first, in no particular order: rank[:k] is kept as a heap with the
// last-ranked of them on top, and every later element that outranks the
// top takes its place. O(n log k) whatever the input order; a flood of
// one-SYN sources, all ties, costs about one comparison per source.
func selectTopTCP(rank []tcpRank, k int) {
	top := rank[:k]
	down := func(i int) {
		for {
			c := 2*i + 1
			if c >= k {
				return
			}
			if c+1 < k && top[c].before(top[c+1]) {
				c++
			}
			if !top[i].before(top[c]) {
				return
			}
			top[i], top[c] = top[c], top[i]
			i = c
		}
	}
	for i := k/2 - 1; i >= 0; i-- {
		down(i)
	}
	for i := k; i < len(rank); i++ {
		if rank[i].before(top[0]) {
			top[0], rank[i] = rank[i], top[0]
			down(0)
		}
	}
}

// rollTCPLocked folds in the deltas shards handed over since the last
// Roll, re-judges offenders, emits journal evidence for the worst of
// them, prunes the table back under its bound, and decays the counters
// on the sketch cadence. It appends the sources the table then holds as
// offenders to offenders and returns it. Caller holds a.mu; called once
// per Roll after the window counter advanced.
//
// Each hand-over holds at most TCPMaxSources sources, so the ranking
// holds at most TCPMaxSources × (hand-overs since the last Roll + 1)
// sources however many a spoofed flood brings. Each source the table
// holds is looked up in the deltas, and a source seen only in deltas
// joins the ranking directly, summed over every delta that holds it. The
// TCPMaxSources that rank first are selected, and the table is rebuilt
// from them instead of deleting the rest key by key. Nothing is sorted
// but the few sources the journal takes, in rank order. Pruning and
// journalling follow rank order, never map order, and deltas fold in
// flush order, so the outcome is deterministic and the same as merging
// every delta into the table at its Flush.
func (a *Attributor) rollTCPLocked(offenders []uint64) []uint64 {
	a.tcpMu.Lock()
	pend := append(a.tcpFold[:0], a.tcpPend...)
	clear(a.tcpPend)
	a.tcpPend = a.tcpPend[:0]
	a.tcpMu.Unlock()
	if len(a.tcpSrc) == 0 && len(pend) == 0 {
		return offenders
	}

	rank, evs := a.tcpRank[:0], a.tcpEv[:0]
	join := func(src uint64, ev tcpEvidence) {
		rank = append(rank, tcpRank{src: src, syns: ev.syns, ev: int32(len(evs)),
			eligible: a.judgeTCP(&ev) && !(ev.offender && ev.journaled)})
		evs = append(evs, ev)
	}
	// take adds src's delta in d to ev, once: a folded slot reads n 0.
	take := func(d *tcpDeltas, src uint64, ev *tcpEvidence) {
		if i, ok := d.idx[src]; ok && d.slots[i].n > 0 {
			ev.add(d.slots[i].d)
			d.slots[i].n = 0
		}
	}
	// A source the table holds takes its deltas first, in flush order,
	// and leaves the deltas holding only sources the table does not.
	for src, ev := range a.tcpSrc {
		for _, d := range pend {
			take(d, src, &ev)
		}
		join(src, ev)
	}
	// A fresh source joins from the first delta that holds it, summed
	// over the later ones.
	for j, d := range pend {
		a.tcpDropped.Add(d.dropped)
		for i := range d.slots {
			s := &d.slots[i]
			if s.n == 0 {
				continue
			}
			var ev tcpEvidence
			ev.add(s.d)
			s.n = 0
			for _, later := range pend[j+1:] {
				take(later, s.src, &ev)
			}
			join(s.src, ev)
		}
	}
	keep := len(rank)
	if keep > a.cfg.TCPMaxSources {
		keep = a.cfg.TCPMaxSources
		selectTopTCP(rank, keep)
	}
	for _, r := range rank[:keep] {
		ev := &evs[r.ev]
		if offender := a.judgeTCP(ev); offender != ev.offender {
			ev.offender, ev.journaled = offender, false
		}
	}
	// Journal the worst eligible sources, worst first. Every kept source
	// ranks before every pruned one, so a pruned offender gets a slot only
	// if the kept ones leave it unused: it is journalled in the Roll that
	// forgets it.
	var top [tcpEvidenceJournalCap]tcpRank
	for _, r := range firstEligible(rank, top[:]) {
		ev := &evs[r.ev]
		a.jrec.Record(journal.KindTCPEvidence, 0, 0, r.src, ev.port,
			float64(ev.syns), float64(ev.acks), float64(ev.fails+ev.malformed))
		ev.journaled = true
	}

	decay := a.windows%a.cfg.DecayEveryWindows == 0
	clear(a.tcpSrc)
	for _, r := range rank[:keep] {
		ev := evs[r.ev]
		if decay {
			ev.syns /= 2
			ev.acks /= 2
			ev.fails /= 2
			ev.malformed /= 2
			if ev.syns == 0 && ev.acks == 0 && ev.fails == 0 && ev.malformed == 0 {
				continue
			}
		}
		a.tcpSrc[r.src] = ev
		if ev.offender {
			offenders = append(offenders, r.src)
		}
	}

	a.tcpHeld.Set(int64(len(a.tcpSrc)))

	// Empty the folded tables outside tcpMu, then free them for the next
	// Flushes to take.
	for _, d := range pend {
		d.reset()
	}
	a.tcpMu.Lock()
	a.tcpFree = append(a.tcpFree, pend...)
	a.tcpMu.Unlock()
	clear(pend)
	a.tcpRank, a.tcpEv, a.tcpFold = rank[:0], evs[:0], pend[:0]
	return offenders
}

// judgeTCP decides whether a record brands its source an offender: a
// SYN volume past the floor with almost no completions, or a floor's
// worth of invalid (cookie-failing or malformed) segments.
func (a *Attributor) judgeTCP(ev *tcpEvidence) bool {
	if ev.syns >= a.cfg.TCPMinSyns &&
		float64(ev.acks) < tcpCompletionFrac*float64(ev.syns) {
		return true
	}
	return ev.fails >= a.cfg.TCPMinSyns || ev.malformed >= a.cfg.TCPMinSyns
}

// TCPSourceEvidence returns the handshake record for one source as of
// the last Roll: evidence a shard flushed since then joins the table at
// the next Roll.
func (a *Attributor) TCPSourceEvidence(src netpkt.IPv4) TCPEvidence {
	a.mu.Lock()
	defer a.mu.Unlock()
	ev := a.tcpSrc[uint64(src)]
	return TCPEvidence{
		Syns:        ev.syns,
		Completions: ev.acks,
		CookieFails: ev.fails,
		Malformed:   ev.malformed,
		Offender:    ev.offender,
	}
}

// TCPOffenders returns how many sources are currently judged offenders.
func (a *Attributor) TCPOffenders() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, ev := range a.tcpSrc {
		if ev.offender {
			n++
		}
	}
	return n
}

// tcpDelta is one shard observer's window-local accumulation for one
// source.
type tcpDelta struct {
	syns      uint32
	acks      uint32
	fails     uint32
	malformed uint32
	port      uint16
}

// TCPVerdict implements tcpguard.Observer for ShardObserver: verdicts
// accumulate shard-locally (single-writer, no locks) in the bounded
// table; the next Flush hands it to the attributor and the Roll after
// it folds it in.
func (o *ShardObserver) TCPVerdict(dpid uint64, inPort uint16, src netpkt.IPv4, v tcpguard.Verdict) {
	d := tcpDelta{port: inPort}
	switch v {
	case tcpguard.VerdictSyn:
		d.syns = 1
	case tcpguard.VerdictCompletion:
		d.acks = 1
	case tcpguard.VerdictCookieFail:
		d.fails = 1
	case tcpguard.VerdictMalformedFlags, tcpguard.VerdictMalformedOffset, tcpguard.VerdictMalformedOptions:
		d.malformed = 1
	default:
		return
	}
	o.tcp.add(uint64(src), d)
}
