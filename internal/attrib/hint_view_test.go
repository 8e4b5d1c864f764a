package attrib

import (
	"fmt"
	"math/rand"
	"testing"

	"floodguard/internal/dpcache"
	"floodguard/internal/netpkt"
	"floodguard/internal/tcpguard"
)

// lockedHint is Hint as it was before the lock-free view: port blame,
// the any-blamed gate and the handshake offender flag read from the live
// tables under a.mu. Between Rolls those inputs do not change, so it is
// the reference the view must agree with at every step.
func lockedHint(a *Attributor, origin uint64, inPort uint16, pkt *netpkt.Packet) uint8 {
	var tcpOffender, anyBlamed bool
	a.mu.Lock()
	ps := a.ports[portKey(origin, inPort)]
	portBlamed := ps != nil && ps.blamed
	for _, ps := range a.ports {
		anyBlamed = anyBlamed || ps.blamed
	}
	if pkt != nil && len(a.tcpSrc) > 0 && pkt.IsIP() {
		tcpOffender = a.tcpSrc[uint64(pkt.NwSrc)].offender
	}
	a.mu.Unlock()
	if portBlamed || tcpOffender {
		return dpcache.HintSuspect
	}
	if anyBlamed && pkt != nil && pkt.IsIP() {
		if total := a.srcs.Total(); total >= a.cfg.MinSampleTotal &&
			float64(a.srcs.Estimate(uint64(pkt.NwSrc))) >= a.cfg.HeavyHitterFrac*float64(total) {
			return dpcache.HintSuspect
		}
	}
	return dpcache.HintBenign
}

// TestHintViewMatchesLockedHint drives two shard observers through
// seeded windows of port floods that start and stop (blame, heal), SYN
// floods and completers (offender judgement), a one-SYN spray past
// TCPMaxSources (prune) and a short decay cadence, and compares the
// view-based Hint with lockedHint for every (port, source) probe after
// every Flush and every Roll.
func TestHintViewMatchesLockedHint(t *testing.T) {
	sawBlame, sawHeal, sawOffender := false, false, false
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		cfg := testConfig()
		cfg.HealWindows = 2
		cfg.MinSampleTotal = 16
		cfg.HeavyHitterFrac = 0.2
		cfg.TCPMaxSources = 32
		cfg.TCPMinSyns = 4
		cfg.DecayEveryWindows = 3
		a := New(cfg)
		obs := []*ShardObserver{a.NewShardObserver(), a.NewShardObserver()}

		const ports = 6
		attackSrc := func(p int) netpkt.IPv4 { return netpkt.IPv4(0xC6336400 + uint32(p)) }
		var probes []netpkt.Packet
		for p := 1; p <= ports; p++ {
			probes = append(probes, *pktFrom(fmt.Sprintf("10.0.0.%d", p)), *pktFrom(attackSrc(p).String()))
		}
		for i := 0; i < 8; i++ {
			probes = append(probes, tcpPkt(netpkt.IPv4(0xCB007100+uint32(i)), netpkt.TCPSyn))
		}
		probes = append(probes, netpkt.Packet{EthType: netpkt.EtherTypeARP})

		check := func(w int, when string) {
			t.Helper()
			for port := uint16(0); port <= ports+1; port++ {
				if got, want := a.Hint(1, port, nil), lockedHint(a, 1, port, nil); got != want {
					t.Fatalf("seed %d window %d %s: port %d nil packet: view %d, locked %d", seed, w, when, port, got, want)
				}
				for i := range probes {
					p := &probes[i]
					if got, want := a.Hint(1, port, p), lockedHint(a, 1, port, p); got != want {
						t.Fatalf("seed %d window %d %s: port %d source %v: view %d, locked %d", seed, w, when, port, p.NwSrc, got, want)
					}
				}
			}
		}

		attacking := make([]bool, ports+1)
		for w := 0; w < 80; w++ {
			for p := 1; p <= ports; p++ {
				if r.Intn(8) == 0 {
					attacking[p] = !attacking[p]
				}
				n := 1
				if attacking[p] {
					n = 10 + r.Intn(20)
				}
				for i := 0; i < n; i++ {
					src := pktFrom(fmt.Sprintf("10.0.0.%d", p))
					if attacking[p] {
						src = pktFrom(attackSrc(p).String())
					}
					obs[r.Intn(2)].Observe(1, uint16(p), src)
				}
			}
			for i := 0; i < 8; i++ { // handshake senders: offenders come and go
				src := netpkt.IPv4(0xCB007100 + uint32(i))
				o := obs[r.Intn(2)]
				for n := r.Intn(4); n > 0; n-- {
					o.TCPVerdict(1, uint16(1+i%ports), src, tcpguard.VerdictSyn)
					if i%2 == 0 && r.Intn(3) > 0 {
						o.TCPVerdict(1, uint16(1+i%ports), src, tcpguard.VerdictCompletion)
					}
				}
			}
			for n := r.Intn(64); n > 0; n-- { // one-SYN spray past TCPMaxSources
				obs[r.Intn(2)].TCPVerdict(1, 9, netpkt.IPv4(0x0a800000+uint32(r.Intn(1<<16))), tcpguard.VerdictSyn)
			}
			for _, o := range obs {
				o.Flush()
			}
			check(w, "after Flush")
			for _, v := range a.Roll(window) {
				sawBlame = sawBlame || v.Suspect
				sawHeal = sawHeal || v.Healed
			}
			sawOffender = sawOffender || a.TCPOffenders() > 0
			check(w, "after Roll")
		}
	}
	if !sawBlame || !sawHeal || !sawOffender {
		t.Fatalf("blame %v heal %v offender %v — the streams no longer exercise every verdict input",
			sawBlame, sawHeal, sawOffender)
	}
}

// TestHintAndQuietRollAllocateNothing: Hint is a pointer load and two
// binary searches, and a Roll that changes no blamed port and no
// offender republishes nothing.
func TestHintAndQuietRollAllocateNothing(t *testing.T) {
	cfg := testConfig()
	cfg.TCPMinSyns = 4
	a := New(cfg)
	o := a.NewShardObserver()
	atk, flood := netpkt.MustIPv4("198.51.100.1"), pktFrom("10.0.0.66")
	steady := func() {
		for i := 0; i < 10; i++ {
			o.Observe(1, 3, flood) // 100 pps: blamed, and stays so
		}
		o.TCPVerdict(1, 3, atk, tcpguard.VerdictSyn) // an offender, and stays one
		o.Flush()
		a.Roll(window)
	}
	for i := 0; i < 2*cfg.DecayEveryWindows; i++ {
		steady()
	}
	if !a.Blamed(1, 3) || a.TCPOffenders() != 1 {
		t.Fatalf("setup: blamed %v offenders %d", a.Blamed(1, 3), a.TCPOffenders())
	}
	if allocs := testing.AllocsPerRun(2*cfg.DecayEveryWindows, steady); allocs != 0 {
		t.Errorf("a window, its Flush and a verdict-preserving Roll allocate %.2f times", allocs)
	}
	syn, ben := tcpPkt(atk, netpkt.TCPSyn), pktFrom("10.0.0.1")
	if allocs := testing.AllocsPerRun(1000, func() {
		if a.Hint(1, 3, ben) != dpcache.HintSuspect || a.Hint(1, 1, &syn) != dpcache.HintSuspect || a.Hint(1, 1, ben) != dpcache.HintBenign {
			t.Fatal("verdicts moved")
		}
	}); allocs != 0 {
		t.Errorf("Hint allocates %.2f times", allocs)
	}
}
