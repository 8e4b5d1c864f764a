package attrib

import (
	"testing"

	"floodguard/internal/dpcache"
	"floodguard/internal/netpkt"
	"floodguard/internal/tcpguard"
)

// TestShardObserverEquivalence drives the same packet stream through (a)
// direct ObservePacket calls and (b) a set of shard observers flushed at
// each window boundary, and requires identical blame verdicts and source
// hints: the shard path is a pure restructuring of the observation
// plumbing, not a different detector.
func TestShardObserverEquivalence(t *testing.T) {
	const shards = 3
	direct := New(testConfig())
	sharded := New(testConfig())
	obs := make([]*ShardObserver, shards)
	for i := range obs {
		obs[i] = sharded.NewShardObserver()
	}

	i := 0
	emit := func(dpid uint64, port uint16, src string) {
		p := pktFrom(src)
		direct.ObservePacket(dpid, port, p)
		obs[i%shards].Observe(dpid, port, p)
		i++
	}

	for w := 0; w < 10; w++ {
		emit(1, 1, "10.0.0.1") // benign: 10 pps, below the floor excursion
		for j := 0; j < 10; j++ {
			emit(1, 3, "10.0.0.66") // attack: 100 pps, single source
		}
		for _, o := range obs {
			o.Flush()
		}
		dv := direct.Roll(window)
		sv := sharded.Roll(window)
		if len(dv) != len(sv) {
			t.Fatalf("window %d: verdict count %d != %d", w, len(sv), len(dv))
		}
	}

	for _, port := range []uint16{1, 3} {
		if direct.Blamed(1, port) != sharded.Blamed(1, port) {
			t.Fatalf("port %d: blame diverged (direct %v)", port, direct.Blamed(1, port))
		}
		if db, sb := direct.PortBlame(1, port), sharded.PortBlame(1, port); db != sb {
			t.Fatalf("port %d: blame score %v != %v", port, sb, db)
		}
	}
	if !sharded.Blamed(1, 3) {
		t.Fatal("attack port not blamed via shard observers")
	}

	// Source verdicts must agree too: the attack source is a heavy hitter
	// on both paths, the benign one on neither.
	atk, ben := pktFrom("10.0.0.66"), pktFrom("10.0.0.1")
	if h := sharded.Hint(1, 1, atk); h != direct.Hint(1, 1, atk) || h != dpcache.HintSuspect {
		t.Fatalf("attack source hint = %d", h)
	}
	// Port 1 is unblamed and 10.0.0.1 owns ~9% of the stream.
	if h := sharded.Hint(1, 1, ben); h != direct.Hint(1, 1, ben) || h != dpcache.HintBenign {
		t.Fatalf("benign source hint = %d", h)
	}
}

// TestShardObserverFlushIsIncremental: flushing mid-window must not
// double-count — two flushes of the same observer contribute each sample
// exactly once.
func TestShardObserverFlushIsIncremental(t *testing.T) {
	a := New(testConfig())
	o := a.NewShardObserver()
	for j := 0; j < 5; j++ {
		o.Observe(1, 2, pktFrom("10.0.0.9"))
	}
	o.Flush()
	o.Flush() // idempotent on an empty buffer
	for j := 0; j < 5; j++ {
		o.Observe(1, 2, pktFrom("10.0.0.9"))
	}
	o.Flush()
	v := a.Roll(window)
	if len(v) != 1 {
		t.Fatalf("verdicts = %+v", v)
	}
	// 10 samples over a 100ms window = 100 pps.
	if v[0].RatePPS != 100 {
		t.Fatalf("rate = %v pps, want 100", v[0].RatePPS)
	}
	if got := a.srcs.Total(); got != 10 {
		t.Fatalf("sketch total = %d, want 10", got)
	}
}

// TestShardMissPathAllocatesNothing pins the miss path's share of the
// engine's allocation-free packet body: a never-seen source costs
// Observe a count-min update and TCPVerdict a map insert into buckets an
// earlier window left behind — no allocation — and a steady-state window
// (the same sources window after window), its Flush and the Roll that
// folds the handed-over delta map and returns it for reuse allocate
// nothing either.
func TestShardMissPathAllocatesNothing(t *testing.T) {
	a := New(Config{})
	o := a.NewShardObserver()
	const perWindow = 2048
	src := uint32(0x0b000000)
	pkt := tcpPkt(0, netpkt.TCPSyn)
	spoof := func() {
		src++
		pkt.NwSrc = netpkt.IPv4(src)
		o.Observe(1, 9, &pkt)
		o.TCPVerdict(1, 9, pkt.NwSrc, tcpguard.VerdictSyn)
	}
	oneWindow := func() {
		for i := 0; i < perWindow; i++ {
			spoof()
		}
		o.Flush()
		a.Roll(window)
	}
	// Grows the delta maps to a window's worth of buckets; the second
	// window's Flush takes back the map the first Roll returned.
	oneWindow()
	oneWindow()
	if allocs := testing.AllocsPerRun(perWindow/2, spoof); allocs != 0 {
		t.Errorf("Observe+TCPVerdict on a never-seen source allocates %.2f times", allocs)
	}

	steady := func() {
		src = 0x0c000000
		oneWindow()
	}
	steady()
	if allocs := testing.AllocsPerRun(10, steady); allocs != 0 {
		t.Errorf("a steady-state window of %d sources, its Flush and Roll allocate %.2f times", perWindow, allocs)
	}
}
