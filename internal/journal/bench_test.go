package journal

import "testing"

// BenchmarkJournalAppend is the raw hot-path append: one Record call
// into a shard recorder, with a same-goroutine periodic drain standing
// in for the cache-loop consumer (the SPSC contract permits
// producer == consumer on one goroutine). The 0 allocs/op budget is a
// tier-1 test (TestAppendAllocatesNothing).
func BenchmarkJournalAppend(b *testing.B) {
	j := ForEngine(1)
	rec := j.ShardRec(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Record(KindSuspect, 0, 0, 1, uint16(i&63), float64(i), 120.5, 0.4)
		if i&1023 == 1023 {
			j.Drain()
		}
	}
	if j.Dropped() != 0 {
		b.Fatalf("dropped %d events", j.Dropped())
	}
}

// BenchmarkJournalAppendNil is the disabled-journal cost: the nil
// receiver fast-out that instrumented code pays when no journal is
// attached.
func BenchmarkJournalAppendNil(b *testing.B) {
	var rec *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.Record(KindSuspect, 0, 0, 1, uint16(i&63), float64(i), 120.5, 0.4)
	}
}
