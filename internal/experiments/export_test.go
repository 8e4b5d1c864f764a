package experiments

import "time"

// PeakUtil returns the highest utilization sample of app.
func (r *CPUTimelineResult) PeakUtil(app string) float64 {
	peak := 0.0
	for _, s := range r.Series[app] {
		if s.Util > peak {
			peak = s.Util
		}
	}
	return peak
}

// AvgUtil returns the mean utilization of app over [from, to).
func (r *CPUTimelineResult) AvgUtil(app string, from, to time.Duration) float64 {
	sum, n := 0.0, 0
	for _, s := range r.Series[app] {
		if s.At >= from && s.At < to {
			sum += s.Util
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
