package sketch

import "testing"

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
