package sketch

import (
	"fmt"
	"testing"
)

// The attribution data path updates a sketch per sampled packet_in, so
// Update and Estimate carry a 0 allocs/op budget (pinned by the tier-1
// test TestSketchesAllocateNothing).

func BenchmarkCountMinUpdate(b *testing.B) {
	s := NewCountMin(4, 2048, 0xF100D)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(uint64(i), 1)
	}
}

func BenchmarkCountMinEstimate(b *testing.B) {
	s := NewCountMin(4, 2048, 0xF100D)
	for i := 0; i < 4096; i++ {
		s.Update(uint64(i), uint64(i%7+1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Estimate(uint64(i))
	}
}

func BenchmarkSpaceSavingObserveTracked(b *testing.B) {
	ss := NewSpaceSaving(64)
	for i := 0; i < 64; i++ {
		ss.Observe(uint64(i), 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ss.Observe(uint64(i%64), 1)
	}
}

func BenchmarkSpaceSavingObserveChurn(b *testing.B) {
	ss := NewSpaceSaving(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ss.Observe(uint64(i), 1)
	}
}

// BenchmarkSpaceSavingLocalObserve measures the shard-local summary in
// the shapes a flood gives it, at the default TopK and at a large one:
//   - fresh: every key is new, every observe evicts, and the slots tie
//     at one Count (a spoofed flood's shape);
//   - churn-under-heavy: capacity-1 heavy hitters hold their slots while
//     fresh keys evict the one slot left, whose Count climbs;
//   - tracked: unit increments to keys that all hold slots.
func BenchmarkSpaceSavingLocalObserve(b *testing.B) {
	for _, capacity := range []int{64, 1024} {
		c := uint64(capacity)
		for _, shape := range []struct {
			name         string
			heavy, fresh bool // seed cap-1 keys at 1<<40 (else cap at 1); observe new keys
		}{{"fresh", false, true}, {"churn-under-heavy", true, true}, {"tracked", false, false}} {
			b.Run(fmt.Sprintf("cap%d/%s", capacity, shape.name), func(b *testing.B) {
				ss := NewSpaceSavingLocal(capacity)
				n, inc := c, uint64(1)
				if shape.heavy {
					n, inc = c-1, 1<<40
				}
				for k := uint64(0); k < n; k++ {
					ss.Observe(k, inc)
				}
				ss.Observe(1<<63, 1) // full: the first eviction builds the victim index
				b.ReportAllocs()
				b.ResetTimer()
				for i := uint64(0); i < uint64(b.N); i++ {
					k := i % c
					if shape.fresh {
						k = c + i
					}
					ss.Observe(k, 1)
				}
			})
		}
	}
}
