package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentCounters hammers counters and gauges from many
// goroutines; run under -race this doubles as the data-race proof for
// the scrape path (Value reads race the increments by construction).
func TestConcurrentCounters(t *testing.T) {
	const goroutines = 8
	const perG = 10000
	var c Counter
	var g Gauge
	var fg FloatGauge
	stop := make(chan struct{})
	var scrapes sync.WaitGroup
	scrapes.Add(1)
	go func() {
		defer scrapes.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = c.Value()
				_ = g.Value()
				_ = fg.Value()
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Inc()
				fg.Set(float64(j))
			}
		}()
	}
	wg.Wait()
	close(stop)
	scrapes.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := g.Value(); got != goroutines*perG {
		t.Errorf("gauge = %d, want %d", got, goroutines*perG)
	}
}

func TestConcurrentHistogram(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8, 16, 32, 64})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5000; j++ {
				h.Observe(float64(j % 100))
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 20000 {
		t.Errorf("count = %d, want 20000", got)
	}
}

// TestHistogramBucketBoundaries pins the boundary convention: a value
// exactly at an upper bound lands in that bucket (le is inclusive).
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.0001, 2, 4, 5} {
		h.Observe(v)
	}
	b := h.Buckets()
	if len(b) != 4 {
		t.Fatalf("bucket count = %d, want 4", len(b))
	}
	// Cumulative: le=1 → {0.5, 1}; le=2 → +{1.0001, 2}; le=4 → +{4}; +Inf → +{5}.
	wantCum := []uint64{2, 4, 5, 6}
	for i, want := range wantCum {
		if b[i].Count != want {
			t.Errorf("bucket[%d] (le=%g) = %d, want %d", i, b[i].UpperBound, b[i].Count, want)
		}
	}
	if !math.IsInf(b[3].UpperBound, 1) {
		t.Errorf("last bucket bound = %g, want +Inf", b[3].UpperBound)
	}
	if got, want := h.Sum(), 0.5+1+1.0001+2+4+5; math.Abs(got-want) > 1e-6 {
		t.Errorf("sum = %g, want %g", got, want)
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := NewHistogram(nil) // LatencyBuckets
	h.ObserveDuration(30 * time.Microsecond)
	b := h.Buckets()
	// 30µs is over the 25µs bound, inside the 50µs bucket.
	if b[1].Count != 0 || b[2].Count != 1 {
		t.Errorf("25µs cum = %d (want 0), 50µs cum = %d (want 1)", b[1].Count, b[2].Count)
	}
	if got := h.Sum(); math.Abs(got-30e-6) > 1e-12 {
		t.Errorf("sum = %g, want 30e-6", got)
	}
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(nil, 4)
	hits := 0
	for i := 0; i < 16; i++ {
		if tr.Sample() {
			hits++
		}
	}
	if hits != 4 {
		t.Errorf("sampled %d of 16 with every=4, want 4", hits)
	}
	var nilT *Tracer
	if nilT.Sample() {
		t.Error("nil tracer sampled")
	}
	nilT.Observe(StageReraise, time.Millisecond) // must not panic
	tr.Observe(StagePacketIn, 100*time.Microsecond)
	if got := tr.Histogram(StagePacketIn).Count(); got != 1 {
		t.Errorf("stage count = %d, want 1", got)
	}
}

func TestRegistryPrometheus(t *testing.T) {
	reg := NewRegistry()
	var c Counter
	reg.RegisterCounter("fg_test_total", "A test counter.", &c)
	c.Add(3)
	var g Gauge
	reg.RegisterGauge("fg_test_depth", "A depth gauge.", &g)
	g.Set(7)
	h := reg.Histogram(`fg_test_seconds{stage="x"}`, "A labelled histogram.", []float64{1, 2})
	h.Observe(1.5)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE fg_test_total counter",
		"fg_test_total 3",
		"# TYPE fg_test_depth gauge",
		"fg_test_depth 7",
		"# TYPE fg_test_seconds histogram",
		`fg_test_seconds_bucket{stage="x",le="1"} 0`,
		`fg_test_seconds_bucket{stage="x",le="2"} 1`,
		`fg_test_seconds_bucket{stage="x",le="+Inf"} 1`,
		`fg_test_seconds_sum{stage="x"} 1.5`,
		`fg_test_seconds_count{stage="x"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
}

func TestRegistryLastRegistrationWins(t *testing.T) {
	reg := NewRegistry()
	var a, b Counter
	a.Add(1)
	b.Add(2)
	reg.RegisterCounter("fg_dup_total", "", &a)
	reg.RegisterCounter("fg_dup_total", "", &b)
	snap := reg.Snapshot()
	n := 0
	for _, m := range snap.Metrics {
		if m.Name == "fg_dup_total" {
			n++
			if m.Value != 2 {
				t.Errorf("value = %g, want 2 (last registration wins)", m.Value)
			}
		}
	}
	if n != 1 {
		t.Errorf("fg_dup_total appears %d times, want 1", n)
	}
}

func TestRegistryDumpCSV(t *testing.T) {
	reg := NewRegistry()
	var c Counter
	reg.RegisterCounter("fg_csv_total", "", &c)
	c.Add(9)
	h := reg.Histogram("fg_csv_seconds", "", []float64{1})
	h.Observe(0.5)
	lh := reg.Histogram(`fg_csv_seconds{stage="x"}`, "", []float64{1})
	lh.Observe(2)
	var sb strings.Builder
	if err := reg.DumpCSV(&sb, 1500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"1500,fg_csv_total,9",
		"1500,fg_csv_seconds_count,1", "1500,fg_csv_seconds_sum,0.5",
		// Labelled histograms keep the suffix on the base name.
		`1500,fg_csv_seconds_count{stage="x"},1`, `1500,fg_csv_seconds_sum{stage="x"},2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("csv missing %q\n---\n%s", want, out)
		}
	}
}

// TestWriteJSONInfBucket pins that the histogram +Inf bucket bound does
// not abort the JSON snapshot (encoding/json rejects non-finite floats;
// the encoder buffers, so a failure yields an empty body).
func TestWriteJSONInfBucket(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("fg_json_seconds", "", []float64{1}).Observe(0.5)
	var sb strings.Builder
	if err := reg.WriteJSON(&sb); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, `"le": "+Inf"`) && !strings.Contains(out, `"le":"+Inf"`) {
		t.Errorf("snapshot missing +Inf bucket\n---\n%s", out)
	}
}
