package rtc

import (
	"runtime"
	"testing"
	"time"

	"floodguard/internal/journal"
)

// BenchmarkJournalShardBody is the journal on/off delta on the warm
// run-to-completion shard body: the same 3:1 benign/spoof working set
// as BenchmarkShardPerPacket, run once with no journal attached and
// once with a live journal (shard recorder armed, drops sampled, a
// same-goroutine drain standing in for the cache-loop consumer).
// Attaching forensics must not put an allocation or a lock on the
// packet path: the allocation half is a tier-1 test
// (TestShardBodyAllocatesNothing), the mutex-profile delta is reported.
func BenchmarkJournalShardBody(b *testing.B) {
	for _, on := range []struct {
		name    string
		journal bool
	}{{"journal-off", false}, {"journal-on", true}} {
		b.Run(on.name, func(b *testing.B) {
			var jnl *journal.Journal
			if on.journal {
				jnl = journal.ForEngine(1)
			}
			_, s, items, drain := warmShard(b, Config{Journal: jnl})
			now := time.Now()

			prev := runtime.SetMutexProfileFraction(1)
			before := mutexWaits()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.processOne(&items[i&63], now)
				if i&1023 == 0 {
					// Periodic barrier + consumer, as the real engine's
					// window cadence would produce.
					s.noteFlush()
					drain()
					jnl.Drain()
				}
			}
			b.StopTimer()
			waits := mutexWaits() - before
			runtime.SetMutexProfileFraction(prev)
			b.ReportMetric(float64(waits), "mutexwaits")
			if on.journal && jnl.Dropped() != 0 {
				b.Fatalf("journal dropped %d events mid-bench", jnl.Dropped())
			}
		})
	}
}
