package telemetry

import (
	"testing"
	"time"
)

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkGaugeSet(b *testing.B) {
	var g Gauge
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(int64(i))
	}
}

func BenchmarkHistogramObserveDuration(b *testing.B) {
	h := NewHistogram(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveDuration(42 * time.Microsecond)
	}
}

func BenchmarkTracerSample(b *testing.B) {
	tr := NewTracer(nil, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Sample()
	}
}
