package tcpguard

import (
	"testing"

	"floodguard/internal/netpkt"
)

// The hot paths: cookie mint, cookie validation, and the sharded
// state-table lookup all sit on the per-packet shard body and must
// stay at 0 allocs/op (pinned by the tier-1 test
// TestGuardAllocatesNothing).

func BenchmarkCookieEncode(b *testing.B) {
	c := NewCodec(0xF100D)
	src, dst := netpkt.MustIPv4("10.0.0.1"), netpkt.MustIPv4("192.0.2.1")
	var sink uint32
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink += c.Encode(src, dst, uint16(i), 80, uint32(i>>8))
	}
	_ = sink
}

func BenchmarkCookieValidate(b *testing.B) {
	c := NewCodec(0xF100D)
	src, dst := netpkt.MustIPv4("10.0.0.1"), netpkt.MustIPv4("192.0.2.1")
	k := c.Encode(src, dst, 1234, 80, 10)
	var ok bool
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ok = c.Validate(src, dst, 1234, 80, 10, k)
	}
	if !ok {
		b.Fatal("cookie rejected")
	}
}

func BenchmarkConnTableLookup(b *testing.B) {
	g := New(Config{Shards: 4, PerShardCapacity: 4096, Secret: 0xF100D})
	dst := netpkt.MustIPv4("192.0.2.10")
	const live = 2048
	for i := 0; i < live; i++ {
		complete(g, 1, synPkt(netpkt.IPv4(0x0A000000+i), dst, uint16(1024+i), 80, 1))
	}
	t := &g.shards[1].table
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % live
		if t.lookup(netpkt.IPv4(0x0A000000+j), dst, uint16(1024+j), 80) == nil {
			b.Fatal("lookup missed a live entry")
		}
	}
}

// BenchmarkGuardProcess runs the full SYN→cookie answer path through
// Process, the exact code the rtc shard body executes per flooded SYN.
func BenchmarkGuardProcess(b *testing.B) {
	g := New(Config{Shards: 1, PerShardCapacity: 4096, Secret: 0xF100D})
	dst := netpkt.MustIPv4("192.0.2.10")
	syn := synPkt(netpkt.MustIPv4("10.0.0.1"), dst, 40000, 80, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		syn.TpSrc = uint16(i)
		if g.Process(0, 1, 3, &syn) != ActionAnswer {
			b.Fatal("SYN not answered")
		}
	}
}
