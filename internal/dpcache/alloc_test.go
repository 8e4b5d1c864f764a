package dpcache

import "testing"

// TestReplayAllocatesNothing is the absolute witness behind
// BenchmarkCacheReplay: one ingest plus one scheduled delivery, with and
// without an attribution hinter, allocates nothing.
func TestReplayAllocatesNothing(t *testing.T) {
	for _, mode := range []string{"no-hinter", "hinter"} {
		t.Run(mode, func(t *testing.T) {
			c, sink, pkts := replayFixture(mode == "hinter")
			i := 0
			if a := testing.AllocsPerRun(2000, func() {
				c.Ingest(1, pkts[i%len(pkts)])
				c.emitOne()
				i++
			}); a != 0 {
				t.Errorf("ingest+emit allocates %v, want 0", a)
			}
			if sink.emitted == 0 {
				t.Fatal("nothing delivered")
			}
		})
	}
}
