package attrib

import (
	"floodguard/internal/journal"
	"floodguard/internal/netpkt"
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

// handOverTCP queues a shard's delta map for the next Roll and returns
// an empty one for the shard to fill next — a recycled map when Roll has
// returned one. O(1), under tcpMu only.
func (a *Attributor) handOverTCP(d map[uint64]tcpDelta) map[uint64]tcpDelta {
	a.tcpMu.Lock()
	a.tcpPend = append(a.tcpPend, d)
	var next map[uint64]tcpDelta
	if n := len(a.tcpFree); n > 0 {
		next = a.tcpFree[n-1]
		a.tcpFree = a.tcpFree[:n-1]
	}
	a.tcpMu.Unlock()
	if next == nil {
		next = make(map[uint64]tcpDelta, 16)
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
// Between Rolls a spoofed flood brings one fresh source per SYN, so the
// work per source is kept flat and off the table: each source the table
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
	// A source the table holds takes its deltas first, in flush order,
	// and leaves the deltas holding only sources the table does not.
	for src, ev := range a.tcpSrc {
		for _, d := range pend {
			if dd, ok := d[src]; ok {
				ev.add(dd)
				delete(d, src)
			}
		}
		join(src, ev)
	}
	// A fresh source joins from the first delta that holds it, summed
	// over the later ones.
	for j, d := range pend {
		for src, dd := range d {
			var ev tcpEvidence
			ev.add(dd)
			for _, later := range pend[j+1:] {
				if dl, ok := later[src]; ok {
					ev.add(dl)
					delete(later, src)
				}
			}
			join(src, ev)
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

	// Empty the folded maps outside tcpMu, then return them for the next
	// Flushes to take.
	for _, d := range pend {
		clear(d)
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
		float64(ev.acks) < a.cfg.TCPCompletionFrac*float64(ev.syns) {
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

// TCPTrackedSources returns the evidence-table occupancy (bounded by
// Config.TCPMaxSources at every Roll barrier).
func (a *Attributor) TCPTrackedSources() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.tcpSrc)
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
// accumulate shard-locally (single-writer, no locks); the next Flush
// hands them to the attributor and the Roll after it folds them in.
func (o *ShardObserver) TCPVerdict(dpid uint64, inPort uint16, src netpkt.IPv4, v tcpguard.Verdict) {
	d := o.tcp[uint64(src)]
	switch v {
	case tcpguard.VerdictSyn:
		d.syns++
	case tcpguard.VerdictCompletion:
		d.acks++
	case tcpguard.VerdictCookieFail:
		d.fails++
	case tcpguard.VerdictMalformedFlags, tcpguard.VerdictMalformedOffset, tcpguard.VerdictMalformedOptions:
		d.malformed++
	default:
		return
	}
	d.port = inPort
	o.tcp[uint64(src)] = d
}
