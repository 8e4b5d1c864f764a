package flowtable

import (
	"math/rand"
	"testing"
	"time"

	"floodguard/internal/netpkt"
	"floodguard/internal/openflow"
)

// TestLookupMatchesBruteForce: for random rule sets and packets, Lookup
// must return exactly the entry a brute-force scan over (priority desc,
// insertion order) would pick.
func TestLookupMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	now := time.Date(2015, 6, 22, 0, 0, 0, 0, time.UTC)
	gen := netpkt.NewSpoofGen(1, netpkt.FloodMixed, 16)

	for trial := 0; trial < 100; trial++ {
		tbl := New(0)
		// Build 20 rules of mixed specificity from sample packets.
		samples := make([]netpkt.Packet, 0, 20)
		for i := 0; i < 20; i++ {
			p := gen.Next()
			samples = append(samples, p)
			m := openflow.ExactFrom(&p, uint16(i%4+1))
			// Randomly generalise some fields.
			for _, bit := range []uint32{openflow.WildInPort, openflow.WildDlSrc,
				openflow.WildDlDst, openflow.WildTpSrc, openflow.WildTpDst, openflow.WildNwTOS} {
				if r.Intn(2) == 0 {
					m.Wildcards |= bit
				}
			}
			if r.Intn(3) == 0 {
				m.SetNwSrcMaskLen(r.Intn(33))
			}
			fm := openflow.FlowMod{
				Match:    m,
				Command:  openflow.FlowAdd,
				Priority: uint16(r.Intn(5) * 10),
				Actions:  []openflow.Action{openflow.Output(uint16(i + 1))},
			}
			if _, err := tbl.Apply(fm, now); err != nil {
				t.Fatal(err)
			}
		}

		// Probe with both sampled (likely-hit) and fresh (likely-miss)
		// packets.
		for probe := 0; probe < 40; probe++ {
			var pkt netpkt.Packet
			if probe%2 == 0 {
				pkt = samples[r.Intn(len(samples))]
			} else {
				pkt = gen.Next()
			}
			inPort := uint16(r.Intn(5) + 1)

			// Brute force over the already priority-sorted snapshot.
			var want *Entry
			for _, e := range tbl.Entries() {
				if e.Match.Matches(&pkt, inPort) {
					want = e
					break
				}
			}
			got := tbl.Peek(&pkt, inPort)
			if got != want {
				t.Fatalf("trial %d probe %d: Peek = %v, brute force = %v", trial, probe, got, want)
			}
		}
	}
}

// TestExpireNeverRemovesFreshRules: random timeout configurations; a rule
// is removed iff its own deadline passed.
func TestExpireNeverRemovesFreshRules(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	base := time.Date(2015, 6, 22, 0, 0, 0, 0, time.UTC)
	gen := netpkt.NewSpoofGen(9, netpkt.FloodUDP, 0)

	for trial := 0; trial < 50; trial++ {
		tbl := New(0)
		type expect struct {
			key      openflow.Match
			deadline time.Time
		}
		var expects []expect
		for i := 0; i < 15; i++ {
			p := gen.Next()
			idle := uint16(r.Intn(20))
			hard := uint16(r.Intn(20))
			fm := openflow.FlowMod{
				Match: openflow.ExactFrom(&p, 1), Command: openflow.FlowAdd,
				Priority: 5, IdleTimeout: idle, HardTimeout: hard,
			}
			if _, err := tbl.Apply(fm, base); err != nil {
				t.Fatal(err)
			}
			deadline := base.Add(100 * time.Hour)
			if idle > 0 {
				deadline = base.Add(time.Duration(idle) * time.Second)
			}
			if hard > 0 {
				if d := base.Add(time.Duration(hard) * time.Second); d.Before(deadline) {
					deadline = d
				}
			}
			expects = append(expects, expect{key: fm.Match.Normalized(), deadline: deadline})
		}
		at := base.Add(time.Duration(r.Intn(25)) * time.Second)
		tbl.Expire(at)
		remaining := make(map[openflow.Match]bool)
		for _, e := range tbl.Entries() {
			remaining[e.Match.Normalized()] = true
		}
		for _, ex := range expects {
			shouldLive := at.Before(ex.deadline)
			if remaining[ex.key] != shouldLive {
				t.Fatalf("trial %d at=+%v: rule (deadline +%v) alive=%v, want %v",
					trial, at.Sub(base), ex.deadline.Sub(base), remaining[ex.key], shouldLive)
			}
		}
	}
}
