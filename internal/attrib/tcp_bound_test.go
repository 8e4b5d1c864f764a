package attrib

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"floodguard/internal/journal"
	"floodguard/internal/netpkt"
	"floodguard/internal/tcpguard"
)

// boundedVsUnbounded runs the shards' bounded evidence tables beside
// refTCP, the evidence path as it was before the bound: every verdict a
// shard saw joins the table at the shard's Flush, however many sources,
// and Roll ranks them all.
type boundedVsUnbounded struct {
	a   *Attributor
	ref *refTCP
	obs []*ShardObserver
	ja  *journal.Journal
	jr  *journal.Journal
	// unflushed holds each shard's verdicts since its last Flush, for
	// the reference to merge there.
	unflushed [][]fed
	// peak is the most sources one hand-over held; ranked how many
	// distinct sources the last Roll ranked.
	peak, ranked int
}

type fed struct {
	src uint64
	d   tcpDelta
}

func newBoundedVsUnbounded(cfg Config, shards int) *boundedVsUnbounded {
	b := &boundedVsUnbounded{a: New(cfg), unflushed: make([][]fed, shards)}
	b.ja, b.jr = journal.ForEngine(0), journal.ForEngine(0)
	b.a.SetJournal(b.ja.AttribRec())
	b.ref = &refTCP{cfg: b.a.cfg, src: map[uint64]*tcpEvidence{}, jrec: b.jr.AttribRec()}
	for range shards {
		b.obs = append(b.obs, b.a.NewShardObserver())
	}
	return b
}

var verdictDelta = map[tcpguard.Verdict]tcpDelta{
	tcpguard.VerdictSyn:             {syns: 1},
	tcpguard.VerdictCompletion:      {acks: 1},
	tcpguard.VerdictCookieFail:      {fails: 1},
	tcpguard.VerdictMalformedFlags:  {malformed: 1},
	tcpguard.VerdictMalformedOffset: {malformed: 1},
}

func (b *boundedVsUnbounded) verdict(shard int, port uint16, src uint64, v tcpguard.Verdict) {
	b.obs[shard].TCPVerdict(1, port, netpkt.IPv4(src), v)
	d := verdictDelta[v]
	d.port = port
	b.unflushed[shard] = append(b.unflushed[shard], fed{src, d})
}

// window flushes every shard in shard order and rolls both sides.
func (b *boundedVsUnbounded) window() {
	for s, o := range b.obs {
		b.peak = max(b.peak, len(o.tcp.slots))
		o.Flush()
		for _, f := range b.unflushed[s] {
			b.ref.merge(f.src, f.d)
		}
		b.unflushed[s] = b.unflushed[s][:0]
	}
	b.ranked = rollInput(b.a)
	b.a.Roll(50 * time.Millisecond)
	b.ref.roll(b.a.judgeTCP)
}

// rollInput counts the distinct sources the next Roll ranks: those the
// table holds and those the pending hand-overs hold.
func rollInput(a *Attributor) int {
	srcs := map[uint64]bool{}
	for src := range a.tcpSrc {
		srcs[src] = true
	}
	for _, d := range a.tcpPend {
		for _, s := range d.slots {
			srcs[s.src] = true
		}
	}
	return len(srcs)
}

// refOffenders counts the reference's offenders.
func (b *boundedVsUnbounded) refOffenders() int {
	n := 0
	for _, ev := range b.ref.src {
		if ev.offender {
			n++
		}
	}
	return n
}

// TestTCPBoundMatchesUnbounded is the bound's differential where it does
// not bind: seeded windows in which each shard sees at most
// TCPMaxSources sources per Flush, up to exactly that many, with
// persistent offenders, completers, cookie failers and malformed senders
// over one to three shards. Every source's record (counters, port,
// offender and journalled flags), the offender count and the evidence
// events must equal the unbounded path's, and the bound must turn
// nothing away.
func TestTCPBoundMatchesUnbounded(t *testing.T) {
	verdicts := []tcpguard.Verdict{tcpguard.VerdictSyn, tcpguard.VerdictSyn, tcpguard.VerdictSyn,
		tcpguard.VerdictCompletion, tcpguard.VerdictCookieFail, tcpguard.VerdictMalformedFlags, tcpguard.VerdictMalformedOffset}
	for shards := 1; shards <= 3; shards++ {
		for seed := int64(1); seed <= 4; seed++ {
			r := rand.New(rand.NewSource(seed))
			b := newBoundedVsUnbounded(Config{TCPMaxSources: 64, TCPMinSyns: 4, DecayEveryWindows: 4}, shards)
			name := fmt.Sprintf("shards %d seed %d", shards, seed)
			for w := 0; w < 40; w++ {
				for s := range shards {
					// n distinct sources from a pool four times the bound,
					// so sources recur across windows and shards.
					n := 64
					if r.Intn(3) > 0 {
						n = 1 + r.Intn(64)
					}
					srcs := r.Perm(256)[:n]
					for i := 0; i < 4*n; i++ {
						src := uint64(0xC6330000 + srcs[r.Intn(n)])
						if i < n {
							src = uint64(0xC6330000 + srcs[i]) // every picked source at least once
						}
						v := verdicts[r.Intn(len(verdicts))]
						if src&7 == 0 {
							v = tcpguard.VerdictSyn // a persistent SYN-only offender class
						}
						b.verdict(s, uint16(1+r.Intn(4)+8*s), src, v)
					}
				}
				b.window()

				if len(b.a.tcpSrc) != len(b.ref.src) {
					t.Fatalf("%s window %d: %d sources kept, unbounded %d", name, w, len(b.a.tcpSrc), len(b.ref.src))
				}
				for src, want := range b.ref.src {
					if got, ok := b.a.tcpSrc[src]; !ok || got != *want {
						t.Fatalf("%s window %d source %#x: %+v (kept %v), unbounded %+v", name, w, src, got, ok, *want)
					}
				}
				if got, want := b.a.TCPOffenders(), b.refOffenders(); got != want {
					t.Fatalf("%s window %d: %d offenders, unbounded %d", name, w, got, want)
				}
				b.ja.Drain()
				b.jr.Drain()
				if got, want := b.ja.Events(), b.jr.Events(); !slices.Equal(got, want) {
					t.Fatalf("%s window %d: %d evidence events, unbounded %d", name, w, len(got), len(want))
				}
			}
			if dropped := b.a.tcpDropped.Load(); dropped != 0 || b.peak != 64 {
				t.Fatalf("%s: bound dropped %d verdicts at a peak of %d sources per hand-over, want 0 at 64", name, dropped, b.peak)
			}
			if b.refOffenders() == 0 && len(b.ja.Events()) == 0 {
				t.Fatalf("%s: the stream brands no offender", name)
			}
		}
	}
}

// TestTCPBoundKeepsLateOffender is the bound's differential where it
// binds: one shard sees a one-SYN spoofed flood of 16 × TCPMaxSources
// fresh sources and, spread through it after the table has filled, the
// 4 × TCPMinSyns unanswered SYNs of one source with the highest address
// (it loses every tie). The unbounded path brands that source, and only
// it, at the first Roll; so must the bounded one. Its SYNs arrive about
// 1.9 × TCPMaxSources flood sources apart, so a table that admitted every
// newcomer would evict it between any two of them; and flood sources
// admitted past the gate must report only their own single SYN.
func TestTCPBoundKeepsLateOffender(t *testing.T) {
	const maxSrc, minSyns = 1024, 2
	b := newBoundedVsUnbounded(Config{TCPMaxSources: maxSrc, TCPMinSyns: minSyns}, 1)
	const flood, offender = 16 * maxSrc, uint64(0xFFFFFFFE)
	spacing := (flood - maxSrc) / (4 * minSyns)
	for i := 0; i < flood; i++ {
		if i >= maxSrc && (i-maxSrc)%spacing == 0 && (i-maxSrc)/spacing < 4*minSyns {
			b.verdict(0, 9, offender, tcpguard.VerdictSyn)
		}
		b.verdict(0, 9, uint64(0x0A000000+i), tcpguard.VerdictSyn)
	}
	b.window()

	if !b.ref.src[offender].offender || b.refOffenders() != 1 {
		t.Fatalf("unbounded path: offender %+v, %d offenders; want it alone", b.ref.src[offender], b.refOffenders())
	}
	if ev := b.a.TCPSourceEvidence(netpkt.IPv4(offender)); !ev.Offender {
		t.Fatalf("bounded path did not brand the late offender in the same Roll: %+v", ev)
	}
	if n := b.a.TCPOffenders(); n != 1 {
		t.Fatalf("bounded path branded %d sources, want the offender alone", n)
	}
	// Flood sources did pass the gate after the table filled, so a
	// newcomer that inherited its victim's counts would show here.
	admitted := 0
	for i := maxSrc; i < flood; i++ {
		if ev := b.a.TCPSourceEvidence(netpkt.IPv4(0x0A000000 + i)); ev.Syns > 0 {
			admitted++
		}
	}
	held, dropped := len(b.a.tcpSrc), b.a.tcpDropped.Load()
	if admitted == 0 || b.peak != maxSrc || held > maxSrc || dropped == 0 {
		t.Fatalf("%d flood sources admitted past the gate, a peak of %d, %d held, %d dropped; want some, a peak of %d, drops",
			admitted, b.peak, held, dropped, maxSrc)
	}
	if b.ranked > 2*maxSrc {
		t.Fatalf("Roll ranked %d sources, want at most %d (the table plus one hand-over)", b.ranked, 2*maxSrc)
	}
}

// TestTCPEvidenceCostFlatInSources is the bound's flat-cost witness in
// counts: at N = TCPMaxSources and at 16N fresh one-SYN sources per
// window (one shard, a Flush and a Roll per window), the table holds
// and Roll ranks the same number of sources, and a shard that flushes
// twice between Rolls hands over both tables, each within the bound.
func TestTCPEvidenceCostFlatInSources(t *testing.T) {
	const n = 256
	run := func(perWindow, flushes int) (held, ranked, peak int) {
		b := newBoundedVsUnbounded(Config{TCPMaxSources: n, TCPMinSyns: 4, DecayEveryWindows: 4}, 1)
		src := uint64(0x0A000000)
		for w := 0; w < 6; w++ {
			for f := 0; f < flushes; f++ {
				for i := 0; i < perWindow; i++ {
					b.obs[0].TCPVerdict(1, 9, netpkt.IPv4(src), tcpguard.VerdictSyn)
					src++
				}
				if f < flushes-1 {
					b.peak = max(b.peak, len(b.obs[0].tcp.slots))
					b.obs[0].Flush()
				}
			}
			b.window()
		}
		return len(b.a.tcpSrc), b.ranked, b.peak
	}
	h1, r1, p1 := run(n, 1)
	h16, r16, p16 := run(16*n, 1)
	if h1 != h16 || r1 != r16 || p1 != n || p16 != n {
		t.Errorf("at %d sources per window %d held, %d ranked, peak %d; at %d %d, %d, %d: want equal counts, a peak of %d",
			n, h1, r1, p1, 16*n, h16, r16, p16, n)
	}
	// Two Flushes per Roll: both hand-overs reach the Roll, none waits.
	if h, r, p := run(16*n, 2); h != n || r != 3*n || p != n {
		t.Errorf("two Flushes per Roll at %d sources each: %d held, %d ranked, peak %d; want %d, %d, %d",
			16*n, h, r, p, n, 3*n, n)
	}
}
