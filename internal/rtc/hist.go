package rtc

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// latBuckets is the octave count of the latency histogram. observe
// buckets a sample by bits.Len64, so bucket 0 holds 0 ns and bucket i
// holds [2^(i-1), 2^i) nanoseconds; the top bucket starts at 2^38 ns
// (≈ 4.6 minutes) and also takes everything above it — far beyond any
// pipeline latency in play.
const latBuckets = 40

// latHist is a log2-octave latency histogram. Writes are atomic so a
// shard can record while a snapshot reads; the sampled write rate (one
// packet in DefaultLatencySample) keeps the atomic cost off the per-packet
// budget.
type latHist struct {
	buckets [latBuckets]atomic.Uint64
}

func (h *latHist) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	b := bits.Len64(uint64(d))
	if b >= latBuckets {
		b = latBuckets - 1
	}
	h.buckets[b].Add(1)
}

// addInto accumulates the histogram into dst (a merge across shards).
func (h *latHist) addInto(dst *[latBuckets]uint64) {
	for i := range dst {
		dst[i] += h.buckets[i].Load()
	}
}

// latQuantile returns the q-quantile (0 < q <= 1) of a merged octave
// histogram, interpolating linearly inside the winning bucket. Zero
// samples yield zero.
func latQuantile(buckets *[latBuckets]uint64, q float64) time.Duration {
	var total uint64
	for _, n := range buckets {
		total += n
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var cum uint64
	for i, n := range buckets {
		if n == 0 {
			continue
		}
		if cum+n > target {
			lo := uint64(0)
			if i > 0 {
				lo = uint64(1) << (i - 1) // bits.Len64 semantics: bucket i starts at 2^(i-1)
			}
			hi := uint64(1) << i
			frac := float64(target-cum) / float64(n)
			return time.Duration(float64(lo) + frac*float64(hi-lo))
		}
		cum += n
	}
	return time.Duration(uint64(1) << (latBuckets - 1))
}
