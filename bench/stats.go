package main

import (
	"math"
	"sort"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantile returns the q-quantile of sorted samples by the
// nearest-rank rule.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailLadder is the set of tail percentiles a timing may be reported at.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// topPercentile picks the highest percentile of the ladder that still
// has at least ten samples beyond it — a p99 over 200 samples rests on
// two of them and is not reported. With fewer than 20 samples only the
// median qualifies.
func topPercentile(n int) float64 {
	best := tailLadder[0]
	for _, q := range tailLadder {
		if rank := int(math.Ceil(q*float64(n) - 1e-9)); n-rank >= 10 {
			best = q
		}
	}
	return best
}

// timing summarises one timed quantity: the median and the highest
// supported tail percentile, with the sample count.
type timing struct {
	N       int
	P50     float64
	TailQ   float64
	TailVal float64
}

func summarize(samples []float64) timing {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	q := topPercentile(len(s))
	return timing{N: len(s), P50: quantile(s, 0.5), TailQ: q, TailVal: quantile(s, q)}
}

// quantileOf is quantile over unsorted samples.
func quantileOf(samples []float64, q float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return quantile(s, q)
}
