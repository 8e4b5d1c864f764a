package main

import (
	"runtime"
	"time"
)

// runCtx is what a workload is asked to do.
type runCtx struct {
	Seed    int64
	Seconds float64 // timed interval of the wall-clock workloads
	Smoke   bool    // tiny sizes, ~0.3 s: harness coverage, not measurement
	Tracer  *tracer // nil on the untraced run
}

// runResult is one workload run.
type runResult struct {
	Workload string    `json:"workload"`
	E2E      metricSet `json:"end_to_end"`
	// Layer holds the counts every run can read from the layers' own
	// stats; the traced run adds the busy-time rows.
	Layer metricSet `json:"per_layer"`
	// Attempted and Failed count operations for failed_share: frames
	// offered, flow_mods applied, soak windows, testbed points, and the
	// correctness checks themselves. Refused are the failed operations
	// that are ingress refusals of the open loop (a full ring, by
	// design); Hard are the rest and must be zero.
	Attempted uint64  `json:"attempted"`
	Failed    uint64  `json:"failed"`
	Refused   uint64  `json:"refused"`
	Checks    []check `json:"checks"`
	// Rate is the workload's primary speed (pps, soak_pps, sim_speedup),
	// the number trace overhead is judged on.
	Rate float64 `json:"rate"`
	// Timings are the timed quantities behind the medians, with their
	// sample counts and supported tail.
	Timings map[string]timing `json:"timings,omitempty"`
	Wall    float64           `json:"wall_s"`
}

func newResult(name string) *runResult {
	return &runResult{Workload: name, E2E: newE2ESet(), Layer: newLayerSet(), Timings: map[string]timing{}}
}

// hardFailed is the failures that are not by-design ingress refusals.
func (r *runResult) hardFailed() uint64 { return r.Failed - r.Refused }

// correct reports whether every check passed and nothing failed hard.
func (r *runResult) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return r.hardFailed() == 0
}

// addChecks appends checks, counting each as an attempted operation
// and each failure as a failed one.
func (r *runResult) addChecks(cs []check) {
	for _, c := range cs {
		r.Attempted++
		if !c.OK {
			r.Failed++
		}
	}
	r.Checks = append(r.Checks, cs...)
}

// okShare is 1 - failed_share.
func (r *runResult) okShare() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return 1 - float64(r.Failed)/float64(r.Attempted)
}

// medianSetup runs set-up n times and returns the median wall seconds
// and the last product; discard releases a product that is not kept.
func medianSetup[T any](n int, build func() (T, error), discard func(T)) (float64, T, error) {
	var last T
	secs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		v, err := build()
		if err != nil {
			return 0, last, err
		}
		secs = append(secs, time.Since(t).Seconds())
		if i < n-1 {
			discard(v)
			// Collect the discarded product now: otherwise when the
			// collector next runs decides the process's peak RSS.
			runtime.GC()
		}
		last = v
	}
	return median(secs), last, nil
}
