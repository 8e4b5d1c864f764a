package netpkt

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzTCP drives the TCP segment codec with coverage-guided input:
// malformed data offsets and truncated option lists must never panic,
// anything the layered TCP decoder accepts must re-encode to a header it
// accepts again with identical fields, and the parsed option bytes must
// survive a full Packet Marshal/Parse round trip.
func FuzzTCP(f *testing.F) {
	base := func(off uint8, flags uint8) []byte {
		h := []byte{
			0x13, 0x88, 0x1b, 0x58, // ports 5000 > 7000
			0x00, 0x00, 0x00, 0x2a, // seq 42
			0x00, 0x00, 0x00, 0x07, // ack 7
			off << 4, flags,
			0xff, 0xff, // window
			0x00, 0x00, 0x00, 0x00, // checksum, urgent
		}
		return h
	}
	f.Add(base(5, TCPSyn))
	// MSS option, correctly padded with NOPs.
	f.Add(append(base(6, TCPSyn), 2, 4, 0x05, 0xb4))
	// EOL-padded options.
	f.Add(append(base(6, TCPAck), 1, 1, 0, 0))
	// Data offset claims options the segment does not carry.
	f.Add(base(8, TCPSyn))
	// Data offset below the fixed header (4 << 4).
	f.Add(base(4, TCPSyn))
	// Option TLV whose length overruns the option block.
	f.Add(append(base(6, TCPSyn), 2, 40, 0, 0))
	// Option with an impossible length of 1.
	f.Add(append(base(6, TCPSyn), 8, 1, 0, 0))
	// Truncated: one byte short of the fixed header.
	f.Add(base(5, TCPSyn)[:tcpHeaderLen-1])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, seg []byte) {
		// Option validation must tolerate arbitrary bytes.
		_ = ValidateTCPOptions(seg)

		h, payload, err := decodeTCP(seg)
		if err != nil {
			return
		}
		// Re-encode and re-decode: the header must be a fixpoint.
		out := h.Encode(nil)
		h2, rest, err := decodeTCP(out)
		if err != nil {
			t.Fatalf("re-encoded header rejected: %v (% x)", err, out)
		}
		if len(rest) != 0 {
			t.Fatalf("re-encoded header has %d trailing bytes", len(rest))
		}
		want := h
		if len(want.Options) == 0 {
			want.Options = nil
		}
		if len(h2.Options) == 0 {
			h2.Options = nil
		}
		if !reflect.DeepEqual(want, h2) {
			t.Fatalf("header round trip diverged:\n%+v\n%+v", want, h2)
		}

		// The parsed options must also survive the whole-frame path.
		p := Packet{
			EthSrc:  MustMAC("00:00:00:00:00:0a"),
			EthDst:  MustMAC("00:00:00:00:00:0b"),
			EthType: EtherTypeIPv4,
			NwSrc:   MustIPv4("10.0.0.1"), NwDst: MustIPv4("10.0.0.2"),
			NwProto: ProtoTCP,
			TpSrc:   h.SrcPort, TpDst: h.DstPort,
			TCPFlags: h.Flags, TCPSeq: h.Seq, TCPAck: h.Ack,
			TCPOptions: h.Options,
			PayloadLen: len(payload),
		}
		frame := p.Marshal()
		if len(frame) != p.WireLen() {
			t.Fatalf("WireLen %d != len(Marshal()) %d", p.WireLen(), len(frame))
		}
		q, err := Parse(frame)
		if err != nil {
			t.Fatalf("marshalled TCP frame rejected: %v", err)
		}
		if len(q.TCPOptions) == 0 {
			q.TCPOptions = nil
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("packet round trip diverged:\n%+v\n%+v", p, q)
		}
	})
}

func TestTCPOptionsRoundTrip(t *testing.T) {
	opts := []byte{2, 4, 0x05, 0xb4, 1, 1, 1, 0} // MSS + NOPs + EOL
	p := Packet{
		EthSrc:  MustMAC("00:00:00:00:00:01"),
		EthDst:  MustMAC("00:00:00:00:00:02"),
		EthType: EtherTypeIPv4,
		NwSrc:   MustIPv4("10.0.0.1"), NwDst: MustIPv4("10.0.0.2"),
		NwProto: ProtoTCP, TpSrc: 40000, TpDst: 80,
		TCPFlags: TCPSyn, TCPSeq: 0xdeadbeef, TCPAck: 0,
		TCPOptions: opts, PayloadLen: 3,
	}
	frame := p.Marshal()
	if len(frame) != p.WireLen() {
		t.Fatalf("WireLen %d != marshalled %d", p.WireLen(), len(frame))
	}
	q, err := Parse(frame)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !bytes.Equal(q.TCPOptions, opts) {
		t.Fatalf("options diverged: % x vs % x", q.TCPOptions, opts)
	}
	if q.TCPSeq != p.TCPSeq || q.TCPAck != p.TCPAck || q.TCPFlags != p.TCPFlags {
		t.Fatalf("tcp fields diverged: %+v vs %+v", q, p)
	}
	if q.PayloadLen != 3 {
		t.Fatalf("payload len %d, want 3", q.PayloadLen)
	}
}

// TestTCPOptionsPadding pins the clamping and padding rules: a
// misaligned option slice is zero-padded to the 4-byte data-offset
// granularity, and an oversized one is clamped to MaxTCPOptionsLen.
func TestTCPOptionsPadding(t *testing.T) {
	h := TCPHeader{SrcPort: 1, DstPort: 2, Options: []byte{1, 1, 1}}
	out := h.Encode(nil)
	if len(out) != tcpHeaderLen+4 {
		t.Fatalf("misaligned options encoded to %d bytes, want %d", len(out), tcpHeaderLen+4)
	}
	h2, _, err := decodeTCP(out)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(h2.Options, []byte{1, 1, 1, 0}) {
		t.Fatalf("padded options % x", h2.Options)
	}

	h.Options = make([]byte, 64)
	out = h.Encode(nil)
	if len(out) != tcpHeaderLen+MaxTCPOptionsLen {
		t.Fatalf("oversized options encoded to %d bytes, want %d", len(out), tcpHeaderLen+MaxTCPOptionsLen)
	}
}

func TestValidateTCPOptions(t *testing.T) {
	tests := []struct {
		name string
		opts []byte
		ok   bool
	}{
		{"nil", nil, true},
		{"nops", []byte{1, 1, 1, 1}, true},
		{"mss", []byte{2, 4, 0x05, 0xb4}, true},
		{"eol-then-garbage", []byte{0, 0xff, 0xff, 0xff}, true},
		{"truncated-kind", []byte{1, 1, 1, 2}, false},
		{"length-one", []byte{8, 1, 0, 0}, false},
		{"overrun", []byte{2, 40, 0, 0}, false},
	}
	for _, tt := range tests {
		if err := ValidateTCPOptions(tt.opts); (err == nil) != tt.ok {
			t.Errorf("%s: ValidateTCPOptions(% x) = %v, want ok=%t", tt.name, tt.opts, err, tt.ok)
		}
	}
}
