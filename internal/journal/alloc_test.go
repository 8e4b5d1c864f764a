package journal

import "testing"

// TestAppendAllocatesNothing is the absolute witness for the recorder's
// 0 allocs/op budget: Record on a shard slot, with the consumer's Drain
// keeping the ring from filling.
func TestAppendAllocatesNothing(t *testing.T) {
	j := ForEngine(1)
	rec := j.ShardRec(0)
	i := 0
	if a := testing.AllocsPerRun(4096, func() {
		rec.Record(KindSuspect, 0, 0, 1, uint16(i&63), float64(i), 120.5, 0.4)
		if i++; i&1023 == 0 {
			j.Drain()
		}
	}); a != 0 {
		t.Errorf("Record allocates %v, want 0", a)
	}
	if j.Dropped() != 0 {
		t.Errorf("dropped %d events", j.Dropped())
	}
}
