package attrib

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"floodguard/internal/journal"
)

// refTCP is the handshake-evidence table as it was before the flat
// ranking: pointer-valued records, every source sorted through the map at
// each Roll, the pruned ones deleted key by key. It is the reference the
// flat version must agree with — kept sources, their counters and flags,
// and the journal events, in order.
type refTCP struct {
	cfg     Config
	src     map[uint64]*tcpEvidence
	windows int
	jrec    *journal.Recorder
}

func (a *refTCP) merge(src uint64, d tcpDelta) {
	ev := a.src[src]
	if ev == nil {
		ev = &tcpEvidence{}
		a.src[src] = ev
	}
	ev.syns += uint64(d.syns)
	ev.acks += uint64(d.acks)
	ev.fails += uint64(d.fails)
	ev.malformed += uint64(d.malformed)
	ev.port = d.port
}

func (a *refTCP) roll(judge func(*tcpEvidence) bool) {
	a.windows++
	if len(a.src) == 0 {
		return
	}
	keys := make([]uint64, 0, len(a.src))
	for src := range a.src {
		keys = append(keys, src)
	}
	sort.Slice(keys, func(i, j int) bool {
		x, y := a.src[keys[i]], a.src[keys[j]]
		if x.syns != y.syns {
			return x.syns > y.syns
		}
		return keys[i] < keys[j]
	})
	journaled := 0
	for _, src := range keys {
		ev := a.src[src]
		was := ev.offender
		ev.offender = judge(ev)
		if ev.offender != was {
			ev.journaled = false
		}
		if ev.offender && !ev.journaled && journaled < tcpEvidenceJournalCap {
			a.jrec.Record(journal.KindTCPEvidence, 0, 0, src, ev.port,
				float64(ev.syns), float64(ev.acks), float64(ev.fails+ev.malformed))
			ev.journaled = true
			journaled++
		}
	}
	if len(keys) > a.cfg.TCPMaxSources {
		for _, src := range keys[a.cfg.TCPMaxSources:] {
			delete(a.src, src)
		}
	}
	if a.windows%a.cfg.DecayEveryWindows == 0 {
		for src, ev := range a.src {
			ev.syns /= 2
			ev.acks /= 2
			ev.fails /= 2
			ev.malformed /= 2
			if ev.syns == 0 && ev.acks == 0 && ev.fails == 0 && ev.malformed == 0 {
				delete(a.src, src)
			}
		}
	}
}

// TestRollTCPMatchesSortedReference feeds both tables the same seeded
// windows: more sources than TCPMaxSources (a spray of one-SYN sources,
// so the cut falls inside a run of ties), more persistent offenders than
// the journal cap, completers that stay benign, sources that stop and
// decay away, and malformed-only senders that rank below the bound — the
// offenders that are journalled in the Roll that forgets them.
//
// The attributor gets its evidence the way an engine delivers it: shard
// observers' delta tables, handed over at Flush and folded at Roll. The
// reference merges every delta at its Flush, in flush order. Each shape
// runs one or two shards and one or two Flushes per Roll, with sources
// scattered across shards at random and a port that names the shard, so
// a fold that sums deltas wrongly or keeps the wrong delta's port
// diverges.
func TestRollTCPMatchesSortedReference(t *testing.T) {
	for _, shape := range []struct{ shards, flushes int }{{1, 1}, {2, 1}, {1, 2}, {2, 2}} {
		for seed := int64(1); seed <= 6; seed++ {
			rollTCPDifferential(t, shape.shards, shape.flushes, seed)
		}
	}
}

func rollTCPDifferential(t *testing.T, shards, flushes int, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	pick := rand.New(rand.NewSource(-seed)) // shard choice, off the stream's rng
	cfg := Config{TCPMaxSources: 48, TCPMinSyns: 4, DecayEveryWindows: 4}
	a := New(cfg)
	ja, jr := journal.ForEngine(0), journal.ForEngine(0)
	a.SetJournal(ja.AttribRec())
	ref := &refTCP{cfg: a.cfg, src: map[uint64]*tcpEvidence{}, jrec: jr.AttribRec()}
	obs := make([]*ShardObserver, shards)
	unflushed := make([][]fed, shards)
	for i := range obs {
		obs[i] = a.NewShardObserver()
	}
	// This test pins Roll's fold, not the shard's bound
	// (TestTCPBoundMatchesUnbounded does): lift the bound on every table
	// a shard fills, so every delta reaches Roll.
	lift := func() {
		for _, o := range obs {
			o.tcp.cap = math.MaxInt
		}
	}
	lift()

	feed := func(src uint64, d tcpDelta) {
		s := pick.Intn(shards)
		d.port += uint16(16 * s)
		obs[s].tcp.add(src, d)
		unflushed[s] = append(unflushed[s], fed{src, d})
	}
	flush := func() {
		for s, o := range obs {
			o.Flush()
			for _, f := range unflushed[s] {
				ref.merge(f.src, f.d)
			}
			unflushed[s] = unflushed[s][:0]
		}
		lift()
	}
	name := fmt.Sprintf("shards %d flushes %d seed %d", shards, flushes, seed)
	for w := 0; w < 60; w++ {
		if w < 40 {
			for i := 0; i < 20; i++ { // persistent SYN offenders, many tied
				feed(uint64(1000+i), tcpDelta{syns: uint32(4 + i/4), port: uint16(1 + i%3)})
			}
			for i := 0; i < 6; i++ { // completers
				n := uint32(5 + r.Intn(4))
				feed(uint64(2000+i), tcpDelta{syns: n, acks: n, port: 4})
			}
		}
		// Sources new this window, fed on both sides of the mid-window
		// Flush: with two shards or two Flushes their evidence is split
		// over deltas while the table does not hold them yet.
		split := func() {
			for i := 0; i < 10; i++ {
				feed(uint64(5000+100*w+i), tcpDelta{syns: uint32(1 + r.Intn(3)), fails: uint32(r.Intn(2)), port: uint16(5 + i%2)})
			}
		}
		split()
		if flushes == 2 {
			flush()
		}
		split()
		for i, n := 0, r.Intn(200); i < n; i++ { // one-SYN spray
			feed(uint64(1<<32)+uint64(r.Intn(1<<20)), tcpDelta{syns: 1, port: 9})
		}
		if w%3 == 0 {
			for i := 0; i < 12; i++ { // malformed-only: syns 0, below every SYN sender
				feed(uint64(3000+i+100*w), tcpDelta{malformed: uint32(3 + r.Intn(4)), fails: uint32(r.Intn(3)), port: 7})
			}
		}
		flush()
		a.Roll(50 * time.Millisecond)
		ref.roll(a.judgeTCP)

		if len(a.tcpSrc) != len(ref.src) {
			t.Fatalf("%s window %d: %d sources kept, reference %d", name, w, len(a.tcpSrc), len(ref.src))
		}
		for src, want := range ref.src {
			if got, ok := a.tcpSrc[src]; !ok || got != *want {
				t.Fatalf("%s window %d source %#x: %+v (kept %v), reference %+v", name, w, src, got, ok, *want)
			}
		}
		ja.Drain()
		jr.Drain()
		if got, want := ja.Events(), jr.Events(); !slices.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("%s window %d: journal diverged at event %d of %d (reference %d): %+v, reference %+v",
				name, w, i, len(got), len(want), got[i:min(i+1, len(got))], want[i:min(i+1, len(want))])
		}
	}
	if evs := ja.Events(); len(evs) < 3*tcpEvidenceJournalCap {
		t.Fatalf("%s: only %d evidence events — the stream no longer exercises the journal cap", name, len(evs))
	}
}
