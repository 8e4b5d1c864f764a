package tcpguard

import (
	"testing"

	"floodguard/internal/netpkt"
)

// TestGuardAllocatesNothing is the absolute witness for the SYN-proxy
// tier's 0 allocs/op budget — everything here sits on the per-packet
// data-plane path: cookie encode and validate, the connection-table
// lookup, and the full Process of a flooded SYN.
func TestGuardAllocatesNothing(t *testing.T) {
	c := NewCodec(0xF100D)
	src, dst := netpkt.MustIPv4("10.0.0.1"), netpkt.MustIPv4("192.0.2.1")
	var sink uint32
	i := 0
	if a := testing.AllocsPerRun(1000, func() { sink += c.Encode(src, dst, uint16(i), 80, uint32(i>>8)); i++ }); a != 0 {
		t.Errorf("Codec.Encode allocates %v, want 0", a)
	}
	k := c.Encode(src, dst, 1234, 80, 10)
	if a := testing.AllocsPerRun(1000, func() {
		if !c.Validate(src, dst, 1234, 80, 10, k) {
			t.Fatal("cookie rejected")
		}
	}); a != 0 {
		t.Errorf("Codec.Validate allocates %v, want 0", a)
	}

	g := New(Config{Shards: 4, PerShardCapacity: 4096, Secret: 0xF100D})
	const live = 2048
	for j := 0; j < live; j++ {
		complete(g, 1, synPkt(netpkt.IPv4(0x0A000000+j), dst, uint16(1024+j), 80, 1))
	}
	tbl := &g.shards[1].table
	if a := testing.AllocsPerRun(live, func() {
		j := i % live
		if tbl.lookup(netpkt.IPv4(0x0A000000+j), dst, uint16(1024+j), 80) == nil {
			t.Fatal("lookup missed a live entry")
		}
		i++
	}); a != 0 {
		t.Errorf("connTable.lookup allocates %v, want 0", a)
	}

	syn := synPkt(src, dst, 40000, 80, 1)
	if a := testing.AllocsPerRun(4096, func() {
		syn.TpSrc = uint16(i)
		if g.Process(0, 1, 3, &syn) != ActionAnswer {
			t.Fatal("SYN not answered")
		}
		i++
	}); a != 0 {
		t.Errorf("Guard.Process allocates %v, want 0", a)
	}
	_ = sink
}
