package netpkt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
)

// parseSeeds is one frame of every shape Parse distinguishes: each
// protocol family well formed, with and without an 802.1Q tag, and each
// way a layer can fail to decode.
func parseSeeds() [][]byte {
	var seeds [][]byte
	gen := NewSpoofGen(1, FloodMixed, 64)
	for i := 0; i < 8; i++ {
		pkt := gen.Next()
		seeds = append(seeds, pkt.Marshal())
		pkt.HasVLAN, pkt.VLANID, pkt.VLANPCP = true, uint16(100+i), uint8(i)
		seeds = append(seeds, pkt.Marshal())
	}
	flow := Flow{
		SrcMAC: MustMAC("00:00:00:00:00:0a"), DstMAC: MustMAC("00:00:00:00:00:0b"),
		SrcIP: MustIPv4("10.0.0.1"), DstIP: MustIPv4("10.0.0.2"),
		Proto: ProtoUDP, SrcPort: 5000, DstPort: 7000,
	}
	udp := flow.Packet(100)
	arp := Packet{
		EthSrc: MustMAC("00:00:00:00:00:01"), EthDst: Broadcast,
		EthType: EtherTypeARP,
		NwSrc:   MustIPv4("10.0.0.1"), NwDst: MustIPv4("10.0.0.2"),
	}
	tcp := udp
	tcp.NwProto, tcp.TCPFlags, tcp.TCPOptions = ProtoTCP, TCPSyn, []byte{2, 4, 0x05, 0xb4}
	icmp := udp
	icmp.NwProto, icmp.TpSrc, icmp.TpDst = ProtoICMP, uint16(ICMPEchoRequest), 0
	seeds = append(seeds, udp.Marshal(), arp.Marshal(), tcp.Marshal(), icmp.Marshal())

	// mutate returns a copy of f with fn applied.
	mutate := func(f []byte, fn func(b []byte) []byte) []byte {
		return fn(append([]byte(nil), f...))
	}
	const l3 = ethHeaderLen
	a := arp.Marshal()
	seeds = append(seeds,
		mutate(a, func(b []byte) []byte { b[l3+1] = 6; return b }),                    // ARP hardware type 6
		mutate(a, func(b []byte) []byte { b[l3+2] = 0x86; b[l3+3] = 0xdd; return b }), // ARP protocol IPv6
		a[:l3+arpLen-1], // ARP one byte short
	)
	u := udp.Marshal()
	seeds = append(seeds,
		mutate(u, func(b []byte) []byte { b[l3] = 0x44; return b }), // IHL 4
		mutate(u, func(b []byte) []byte { b[l3] = 0x65; return b }), // version 6
		mutate(u, func(b []byte) []byte { b[l3] = 0x4f; return b }), // IHL 15, past the end of a short datagram
		mutate(u, func(b []byte) []byte { // TotalLen shorter than the buffer
			binary.BigEndian.PutUint16(b[l3+2:], ipv4HeaderLen+udpHeaderLen+10)
			return b
		}),
		mutate(u, func(b []byte) []byte { // TotalLen longer than the buffer
			binary.BigEndian.PutUint16(b[l3+2:], 1500)
			return b
		}),
		mutate(u, func(b []byte) []byte { // TotalLen inside the IP header
			binary.BigEndian.PutUint16(b[l3+2:], 8)
			return b
		}),
		u[:l3+ipv4HeaderLen+udpHeaderLen-1], // UDP one byte short
		u[:l3+ipv4HeaderLen-1],              // IPv4 one byte short
	)
	t := tcp.Marshal()
	seeds = append(seeds,
		mutate(t, func(b []byte) []byte { b[l3+ipv4HeaderLen+12] = 4 << 4; return b }),  // data offset 4
		mutate(t, func(b []byte) []byte { b[l3+ipv4HeaderLen+12] = 15 << 4; return b }), // data offset past the end
		t[:l3+ipv4HeaderLen+tcpHeaderLen-1],                                             // TCP one byte short
	)
	ic := icmp.Marshal()
	seeds = append(seeds, ic[:l3+ipv4HeaderLen+icmpHeaderLen-1]) // ICMP one byte short
	v := seeds[1]
	seeds = append(seeds,
		v[:ethVLANHeaderLen-1], // 802.1Q tag cut short
		v[:ethVLANHeaderLen],   // tag, no payload
		[]byte{},
		make([]byte, ethHeaderLen-1), // one short of an Ethernet header
		bytes.Repeat([]byte{0xff}, 64),
	)
	return seeds
}

// FuzzParse drives the frame parser with coverage-guided input. Parse
// never panics and agrees with the layered decoder it replaced on the
// whole Packet and on the error (nil-ness, ErrTruncated and the text);
// whatever it accepts must re-marshal and re-parse (the flattened view
// is always serialisable).
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		p, err := Parse(frame)
		want, wantErr := layeredParse(frame)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("Parse error %v, layered decoder %v (% x)", err, wantErr, frame)
		}
		if err != nil && (errors.Is(err, ErrTruncated) != errors.Is(wantErr, ErrTruncated) || err.Error() != wantErr.Error()) {
			t.Fatalf("Parse error %q, layered decoder %q (% x)", err, wantErr, frame)
		}
		if !reflect.DeepEqual(p, want) {
			t.Fatalf("Parse and the layered decoder disagree on % x:\n%+v\n%+v", frame, p, want)
		}
		if err != nil {
			return
		}
		out := p.Marshal()
		// MarshalAppend must agree with Marshal byte for byte.
		if app := p.MarshalAppend(nil); !bytes.Equal(out, app) {
			t.Fatalf("Marshal and MarshalAppend disagree:\n% x\n% x", out, app)
		}
		// Reparsing our own serialisation must succeed: Marshal output is
		// always a well-formed frame.
		if _, err := Parse(out); err != nil {
			t.Fatalf("remarshalled frame rejected: %v (% x)", err, out)
		}
	})
}

// BenchmarkParse parses the spoof generator's mixed frames, one per op.
// Its 0 allocs/op budget is TestParseAllocatesNothing.
func BenchmarkParse(b *testing.B) {
	frames := parseSeeds()[:16]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(frames[i&15]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParseAllocatesNothing: the producer parses every frame, refused
// ones included, so neither a frame nor a truncated one may allocate.
func TestParseAllocatesNothing(t *testing.T) {
	for _, frame := range parseSeeds() {
		if a := testing.AllocsPerRun(100, func() { _, _ = Parse(frame) }); a != 0 {
			t.Errorf("Parse(% x) allocates %v times", frame, a)
		}
	}
}
