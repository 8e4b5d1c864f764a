package attrib

import (
	"slices"

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

// mergeTCPLocked folds one shard's flushed delta into the table.
// Caller holds a.mu. The table may transiently exceed TCPMaxSources
// between Rolls; pruning happens only at Roll so that eviction order
// never depends on Go map iteration order.
func (a *Attributor) mergeTCPLocked(src uint64, d tcpDelta) {
	ev := a.tcpSrc[src]
	ev.syns += uint64(d.syns)
	ev.acks += uint64(d.acks)
	ev.fails += uint64(d.fails)
	ev.malformed += uint64(d.malformed)
	ev.port = d.port
	a.tcpSrc[src] = ev
}

// tcpRank is one source's place in a Roll's ranking: SYN volume first,
// the source address to make the order total.
type tcpRank struct {
	src, syns uint64
	// eligible marks a source this Roll journals if the cap allows: an
	// offender whose evidence is not on record yet.
	eligible bool
}

func (r tcpRank) before(o tcpRank) bool {
	return r.syns > o.syns || r.syns == o.syns && r.src < o.src
}

func cmpTCPRank(x, y tcpRank) int {
	switch {
	case x.before(y):
		return -1
	case y.before(x):
		return 1
	}
	return 0
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

// rollTCPLocked re-judges offenders, emits journal evidence for the
// worst of them, prunes the table back under its bound, and decays the
// counters on the sketch cadence. Caller holds a.mu; called once per
// Roll after the window counter advanced.
//
// Between Rolls a spoofed flood grows the table by one entry per source,
// so the work per entry is kept flat: one pass over the map builds a
// ranking, the TCPMaxSources that rank first are selected and only they
// are sorted, and the table is rebuilt from them instead of deleting the
// rest key by key. Judging, journalling and pruning all follow rank
// order, never map order, so the outcome is deterministic.
func (a *Attributor) rollTCPLocked() {
	if len(a.tcpSrc) == 0 {
		return
	}
	rank := a.tcpRank[:0]
	for src, ev := range a.tcpSrc {
		rank = append(rank, tcpRank{src: src, syns: ev.syns,
			eligible: a.judgeTCP(&ev) && !(ev.offender && ev.journaled)})
	}
	keep := len(rank)
	if keep > a.cfg.TCPMaxSources {
		keep = a.cfg.TCPMaxSources
		selectTopTCP(rank, keep)
	}
	slices.SortFunc(rank[:keep], cmpTCPRank)

	journaled := 0
	record := func(src uint64, ev *tcpEvidence) {
		a.jrec.Record(journal.KindTCPEvidence, 0, 0, src, ev.port,
			float64(ev.syns), float64(ev.acks), float64(ev.fails+ev.malformed))
		journaled++
	}
	kept := a.tcpKept[:0]
	for _, r := range rank[:keep] {
		ev := a.tcpSrc[r.src]
		if offender := a.judgeTCP(&ev); offender != ev.offender {
			ev.offender, ev.journaled = offender, false
		}
		if r.eligible && journaled < tcpEvidenceJournalCap {
			record(r.src, &ev)
			ev.journaled = true
		}
		kept = append(kept, ev)
	}
	// The sources ranked past the bound are about to be forgotten, but
	// journal slots the kept ones left unused still go to them, worst
	// first.
	if tail := rank[keep:]; journaled < tcpEvidenceJournalCap {
		n := 0
		for _, r := range tail {
			if r.eligible {
				tail[n] = r
				n++
			}
		}
		slices.SortFunc(tail[:n], cmpTCPRank)
		for _, r := range tail[:min(n, tcpEvidenceJournalCap-journaled)] {
			ev := a.tcpSrc[r.src]
			record(r.src, &ev)
		}
	}

	decay := a.windows%a.cfg.DecayEveryWindows == 0
	clear(a.tcpSrc)
	for i, r := range rank[:keep] {
		ev := kept[i]
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
	}
	a.tcpRank, a.tcpKept = rank[:0], kept[:0]
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

// TCPSourceEvidence returns the handshake record for one source.
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
// accumulate shard-locally (single-writer, no locks) and merge into the
// attributor at the next Flush barrier.
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

// flushTCPLocked merges and resets the shard-local TCP deltas. Caller
// holds a.mu (Flush).
func (o *ShardObserver) flushTCPLocked() {
	if len(o.tcp) == 0 {
		return
	}
	for src, d := range o.tcp {
		o.a.mergeTCPLocked(src, d)
	}
	clear(o.tcp)
}
