package soak

import (
	"reflect"
	"testing"

	"floodguard/internal/rtc"
)

// TestFillWritesEveryField holds the generators to the reused item they
// write into: every packet filled over the previous one — here a
// malformed attacker SYN with options, then a scribbled item — equals the
// same packet filled into a zero item.
func TestFillWritesEveryField(t *testing.T) {
	cfg := benchSoakCfg()
	cfg.MalformedPPS = 100
	cfg.Normalize()
	gens := func() []func(it *rtc.Item) {
		gen, tgen, atks := newBenignGen(&cfg), &tcpConnGen{cfg: &cfg}, buildAttackers(&cfg)
		fills := []func(it *rtc.Item){gen.fill, tgen.fillSyn}
		for _, a := range atks {
			fills = append(fills, func(it *rtc.Item) { a.fill(it, 7) })
		}
		return fills
	}
	dirty, clean := gens(), gens()
	reused := &rtc.Item{}
	for round := 0; round < 3; round++ {
		for i := range dirty {
			dirty[i](reused)
			var want rtc.Item
			clean[i](&want)
			if !reflect.DeepEqual(*reused, want) {
				t.Fatalf("generator %d round %d: filled over the previous packet %+v, into a zero item %+v", i, round, *reused, want)
			}
			reused.Pkt.HasVLAN, reused.Pkt.VLANID, reused.Pkt.ARPOp, reused.Pkt.PayloadLen = true, 7, 2, 99
			reused.Pkt.NwTOS, reused.Pkt.TCPAck, reused.Pkt.TCPOptions = 0xfc, 5, []byte{1, 1, 1, 1}
		}
	}
	if len(dirty) < 5 {
		t.Fatalf("%d generators, want benign, TCP client and every attacker", len(dirty))
	}
}
